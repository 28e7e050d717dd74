package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/netsvc"
	"repro/internal/simrand"
)

// service-mix: an in-process fdnetd (netsvc.Server, one engine worker per
// run, default admission limit) behind a loopback listener, driven by a
// closed loop of svcClients clients: fdnetd's callers (CI jobs, scripts,
// -selftest) each wait for their stream before sending the next request.
// Fresh requests cycle over svcScenarios; every fourth request resumes
// one of them mid-stream. Every stream must be byte-identical to
// Server.ReferenceStream, and every resumed tail to the reference's tail.

const (
	svcClients = 2
	// svcSeeds is how many request seeds each scenario is run at.
	svcSeeds = 4
	// spanHeader carries the client span id to the server-side wrapper.
	spanHeader = "X-Perfbench-Span"
	// svcWarmup is the untimed closed loop run before measuring.
	svcWarmup = 300 * time.Millisecond
)

// svcScenarios cover open-loop traffic, congestion control with
// proportional-fair admission, fault injection, rate adaptation and
// mobility.
var svcScenarios = []string{"retail-shelf", "congested-dock", "outage-retail", "fading-aisle", "mobile-fleet"}

var svcConfig = netsvc.Config{Workers: 1}

// setUpService is what fdnetd does before serving: build the server,
// start listening, and answer a health check.
func setUpService() (func(), error) {
	ts := httptest.NewServer(netsvc.New(svcConfig).Handler())
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		ts.Close()
		return nil, err
	}
	return ts.Close, nil
}

// svcJob is one request of the mix with the exact bytes it must return.
type svcJob struct {
	key   string
	query string // path and query after the server URL
	body  []byte // scenario JSON; nil for a resume
	want  []byte
	// For fresh jobs, the inputs the layer probes replay.
	scenario netsim.Scenario // as declared, before defaults
	seed     uint64
	resumeAt int // round of the mid-stream resume token
}

type serviceSession struct {
	srv    *netsvc.Server
	h      http.Handler
	ts     *httptest.Server
	tp     *http.Transport
	client *http.Client
	fresh  []*svcJob
	jobs   []*svcJob // request n sends jobs[n%len(jobs)]
	next   atomic.Int64

	// Server-side samples of the traced wrapper.
	tr         atomic.Pointer[tracer]
	mu         sync.Mutex
	handlerMs  []float64
	firstWrite []float64
	rejected   atomic.Int64
}

func prepareService(seed uint64, _ scale) (session, error) {
	s := &serviceSession{srv: netsvc.New(svcConfig)}
	for _, name := range svcScenarios {
		sc, err := netsim.Preset(name)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		for k := 0; k < svcSeeds; k++ {
			rs := seed*svcSeeds + uint64(k)
			var ref bytes.Buffer
			if _, err := s.srv.ReferenceStream(body, rs, &ref); err != nil {
				return nil, fmt.Errorf("reference %s seed %d: %w", name, rs, err)
			}
			s.fresh = append(s.fresh, &svcJob{
				key: fmt.Sprintf("%s/%d", name, rs), query: fmt.Sprintf("/runs?seed=%d", rs),
				body: body, want: ref.Bytes(), scenario: sc, seed: rs,
			})
		}
	}
	// Fresh jobs in a seed-dependent order; every fourth request resumes
	// the stream of the fresh job it follows at its middle line.
	order := simrand.New(seed).Perm(len(s.fresh))
	for i := 0; i < 3*len(order); i++ {
		j := s.fresh[order[i%len(order)]]
		s.jobs = append(s.jobs, j)
		if i%3 == 2 {
			r, err := resumeJob(j)
			if err != nil {
				return nil, err
			}
			s.jobs = append(s.jobs, r)
		}
	}

	s.h = s.srv.Handler()
	s.ts = httptest.NewServer(http.HandlerFunc(s.serve))
	s.tp = &http.Transport{MaxIdleConnsPerHost: svcClients, DisableCompression: true}
	s.client = &http.Client{Transport: s.tp}
	// Warm up: open the keep-alive connections and let the server's
	// first-request costs pass before anything is timed.
	s.run(time.Now().Add(svcWarmup), nil)
	return s, nil
}

// resumeJob builds the mid-stream resume of a fresh job: the token on
// the round line before the middle line, and the tail from there on.
func resumeJob(j *svcJob) (*svcJob, error) {
	lines := bytes.SplitAfter(j.want, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty last element
	if len(lines) < 3 {
		return nil, fmt.Errorf("%s: stream too short to resume (%d lines)", j.key, len(lines))
	}
	cut := len(lines) / 2
	var mid struct {
		Resume string `json:"resume"`
		Round  int    `json:"round"`
	}
	if err := json.Unmarshal(lines[cut-1], &mid); err != nil || mid.Resume == "" {
		return nil, fmt.Errorf("%s: no resume token on line %d: %v", j.key, cut, err)
	}
	j.resumeAt = mid.Round + 1
	return &svcJob{
		key: j.key + "@resume", query: "/runs?resume=" + mid.Resume,
		want: bytes.Join(lines[cut:], nil),
	}, nil
}

// serve wraps the server's handler. Traced, it records a netsvc.handler
// span under the client's request span, the handler's duration and the
// time to its first write.
func (s *serviceSession) serve(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	fw := &firstWriter{ResponseWriter: w}
	t0 := time.Now()
	s.h.ServeHTTP(fw, r)
	t1 := time.Now()
	tr.add(0, parent, "netsvc.handler", t0, t1)
	s.mu.Lock()
	s.handlerMs = append(s.handlerMs, ms(t1.Sub(t0)))
	if !fw.at.IsZero() {
		s.firstWrite = append(s.firstWrite, ms(fw.at.Sub(t0)))
	}
	s.mu.Unlock()
}

// firstWriter notes when the handler first writes. It forwards Flush,
// which the server needs to stream line by line.
type firstWriter struct {
	http.ResponseWriter
	at time.Time
}

func (f *firstWriter) Write(b []byte) (int, error) {
	if f.at.IsZero() {
		f.at = time.Now()
	}
	return f.ResponseWriter.Write(b)
}

func (f *firstWriter) Flush() {
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// do sends one request and checks the stream it returns. A transport
// error, a status other than 200 (429 included) or any byte of
// difference fails the operation.
func (s *serviceSession) do(j *svcJob, tr *tracer) (ttfl, ttr time.Duration, ok bool) {
	body := io.Reader(http.NoBody)
	if j.body != nil {
		body = bytes.NewReader(j.body)
	}
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+j.query, body)
	if err != nil {
		return 0, 0, false
	}
	id := tr.newID()
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, false
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	first, err := br.ReadBytes('\n')
	t1 := time.Now()
	rest, restErr := io.ReadAll(br)
	t2 := time.Now()
	tr.add(0, id, "client.first_line", t0, t1)
	tr.add(id, 0, "client.request", t0, t2)
	if resp.StatusCode == http.StatusTooManyRequests {
		s.rejected.Add(1)
	}
	ok = resp.StatusCode == http.StatusOK && err == nil && restErr == nil &&
		bytes.HasPrefix(j.want, first) && bytes.Equal(j.want[len(first):], rest)
	return t1.Sub(t0), t2.Sub(t0), ok
}

func (s *serviceSession) run(deadline time.Time, tr *tracer) *opLog {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	log := newOpLog()
	var wg sync.WaitGroup
	wg.Add(svcClients)
	for c := 0; c < svcClients; c++ {
		go func() {
			defer wg.Done()
			for {
				j := s.jobs[int(s.next.Add(1)-1)%len(s.jobs)]
				ttfl, ttr, ok := s.do(j, tr)
				log.add(ttr, ttfl, ok)
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return log.done()
}

// serverSamples returns and clears the wrapper's samples.
func (s *serviceSession) serverSamples() (handlerMs, firstWriteMs []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	handlerMs, firstWriteMs = s.handlerMs, s.firstWrite
	s.handlerMs, s.firstWrite = nil, nil
	return handlerMs, firstWriteMs
}

func (s *serviceSession) close() {
	s.tp.CloseIdleConnections()
	s.ts.Close()
}
