package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own set-up child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if name := os.Getenv(setupChildEnv); name != "" {
		os.Exit(runSetupChild(name, os.Stdout))
	}
	os.Exit(m.Run())
}

// tinyScale runs every code path of every workload in seconds.
var tinyScale = scale{
	millionTags: 4096,
	experiments: []string{"fig2", "tab1", "scen-range"},
	probeTime:   5 * time.Millisecond,
	passes:      1,
	svcTime:     100 * time.Millisecond,
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	for i := range names {
		if names[i] != workloadNames()[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics asserts the result carries exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 0.05, trace: trace, out: t.TempDir()}
			res, err := measure(w, o, tinyScale, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			checkMetrics(t, res.Metrics, want)
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestCorruptReferenceFails corrupts each workload's reference and
// expects every operation to count as failed, not to be skipped.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloads {
		sess, err := w.prepare(5, tinyScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		switch s := sess.(type) {
		case *suiteSession:
			s.want[len(s.want)/2] ^= 1
		case *millionSession:
			s.want = "not-" + s.want
		case *serviceSession:
			for _, j := range s.jobs {
				j.want[len(j.want)-2] ^= 1
			}
		default:
			t.Fatalf("%s: unexpected session %T", w.name, sess)
		}
		log := sess.run(time.Now().Add(50*time.Millisecond), nil)
		sess.close()
		if log.attempted == 0 || log.failed != log.attempted {
			t.Errorf("%s: %d of %d operations failed against a corrupted reference, want all", w.name, log.failed, log.attempted)
		}
	}
}

// TestSpanSelfTimes checks the traced runs' span trees: a self time is
// never negative and never exceeds the span's own duration, a child
// never outlasts its parent, and the spans cover the traced wall time.
func TestSpanSelfTimes(t *testing.T) {
	for _, w := range workloads {
		sess, err := w.prepare(4, tinyScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr := newTracer()
		log := sess.run(time.Now().Add(100*time.Millisecond), tr)
		sess.close()
		spans := tr.finish()
		if len(spans) == 0 {
			t.Fatalf("%s: no spans", w.name)
		}
		byID := map[int64]span{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		self := selfTimes(spans)
		for _, s := range spans {
			if self[s.ID] < 0 || self[s.ID] > s.dur() {
				t.Errorf("%s: span %s self %v outside [0, %v]", w.name, s.Name, self[s.ID], s.dur())
			}
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("%s: span %s has unknown parent %d", w.name, s.Name, s.Parent)
				continue
			}
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %s [%v, %v] outside its parent %s [%v, %v]", w.name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			if self[s.ID] > p.dur() {
				t.Errorf("%s: span %s self %v exceeds its parent's duration %v", w.name, s.Name, self[s.ID], p.dur())
			}
		}
		from, to := log.start.Sub(tr.epoch), log.end.Sub(tr.epoch)
		if cov := float64(covered(rootIntervals(spans), from, to)) / float64(to-from); cov < 0.95 {
			t.Errorf("%s: spans cover %.3f of the traced wall time, want >= 0.95", w.name, cov)
		}
	}
}

// TestEngineCountsRepeat runs the netsim probe twice at one seed: the
// exact engine counts, and the link quality it hands the MAC probe, must
// come out identical.
func TestEngineCountsRepeat(t *testing.T) {
	counts := []string{"netsim.rounds", "netsim.frames_delivered", "netsim.mac_attempts",
		"netsim.singleton_slots", "netsim.collision_slots", "netsim.delivered_per_attempt", "netsim.collision_frac"}
	var runs [2]metricSet
	var links [2]millionLink
	for i := range runs {
		runs[i] = metricSet{}
		var pc probeCount
		var err error
		if links[i], err = netsimProbe(9, tinyScale, runs[i], &pc); err != nil {
			t.Fatal(err)
		}
		if pc.failed != 0 {
			t.Errorf("run %d: %d of %d probe checks failed", i, pc.failed, pc.attempted)
		}
	}
	if l := links[0]; l != links[1] || !(l.chunkLoss > 0 && l.chunkLoss < 1) || !(l.feedbackBER >= 0 && l.feedbackBER < 0.5) {
		t.Errorf("MAC probe link %+v then %+v, want the same loss in (0, 1) and BER in [0, 0.5)", links[0], links[1])
	}
	for _, name := range counts {
		if a, b := runs[0][name], runs[1][name]; a != b || a == 0 {
			t.Errorf("%s: %v then %v, want the same nonzero value", name, a, b)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]time.Duration{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := covered(iv, 0, 100); got != 35 {
		t.Errorf("covered = %v, want 35", got)
	}
	if got := covered(iv, 8, 25); got != 12 {
		t.Errorf("clipped covered = %v, want 12", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("empty covered = %v, want 0", got)
	}
}
