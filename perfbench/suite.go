package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
)

// paper-suite: one operation is the work of
// `fdbench -run all -quick -parallel 2`: every registered experiment at
// the workload seed, each table rendered as fdbench prints it. Each pass
// must be byte-identical to a serial rendering made at set-up and, at the
// default seed, to the pinned digest.

// setUpSuite is what fdbench does before its first experiment: resolve
// the experiment list (the registry itself is built at process start).
func setUpSuite() (func(), error) {
	if len(bench.List()) == 0 {
		return nil, fmt.Errorf("no experiments registered")
	}
	return func() {}, nil
}

type suiteSession struct {
	exps   []bench.Experiment
	cfg    bench.RunConfig
	want   []byte
	pinned string // sha256 every pass must have ("" when none is pinned)
	buf    bytes.Buffer
}

// experiments resolves a pass's experiment list (nil ids: all).
func experiments(ids []string) ([]bench.Experiment, error) {
	if ids == nil {
		return bench.List(), nil
	}
	var out []bench.Experiment
	for _, id := range ids {
		e, err := bench.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func prepareSuite(seed uint64, sc scale) (session, error) {
	exps, err := experiments(sc.experiments)
	if err != nil {
		return nil, err
	}
	s := &suiteSession{exps: exps, cfg: bench.RunConfig{Seed: seed, Quick: true, Workers: workers}}
	serial := s.cfg
	serial.Workers = 1
	var ref bytes.Buffer
	renderPass(&ref, exps, serial, nil)
	s.want = ref.Bytes()
	if seed == defaultSeed && sc.experiments == nil {
		s.pinned = pinnedSuiteSHA256
	}
	return s, nil
}

// passTimes are the timings of one suite pass.
type passTimes struct {
	first  time.Duration   // pass start to the first table rendered
	exp    []time.Duration // per experiment, run plus render
	render time.Duration   // all table rendering
}

// renderPass runs every experiment and writes what fdbench prints for
// it: the text table, then its shape line, with a blank line between
// experiments.
func renderPass(w *bytes.Buffer, exps []bench.Experiment, cfg bench.RunConfig, tr *tracer) passTimes {
	var pt passTimes
	start := time.Now()
	for i, e := range exps {
		if i > 0 {
			w.WriteByte('\n')
		}
		id := tr.newID()
		t0 := time.Now()
		res := e.Run(cfg)
		t1 := time.Now()
		// Writes to a bytes.Buffer cannot fail.
		_ = res.Table.WriteText(w)
		fmt.Fprintf(w, "shape: %s\n", res.Shape)
		t2 := time.Now()
		tr.add(0, id, "trace.render", t1, t2)
		tr.add(id, 0, "bench.experiment", t0, t2)
		if i == 0 {
			pt.first = t2.Sub(start)
		}
		pt.exp = append(pt.exp, t2.Sub(t0))
		pt.render += t2.Sub(t1)
	}
	return pt
}

// check reports whether a pass's output is the reference rendering.
func (s *suiteSession) check(got []byte) bool {
	return bytes.Equal(got, s.want) && (s.pinned == "" || sha256hex(got) == s.pinned)
}

func (s *suiteSession) run(deadline time.Time, tr *tracer) *opLog {
	log := newOpLog()
	for {
		// Each pass starts from a collected heap, as a fresh fdbench
		// process does.
		g0 := time.Now()
		runtime.GC()
		tr.add(0, 0, "harness.gc", g0, time.Now())

		s.buf.Reset()
		t0 := time.Now()
		pt := renderPass(&s.buf, s.exps, s.cfg, tr)
		t1 := time.Now()
		ok := s.check(s.buf.Bytes())
		tr.add(0, 0, "harness.verify", t1, time.Now())
		log.add(t1.Sub(t0), pt.first, ok)
		if !time.Now().Before(deadline) {
			return log.done()
		}
	}
}

func (s *suiteSession) close() {}
