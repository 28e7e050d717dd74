// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints, as the last line of its standard
// output, a JSON object with the operations attempted and failed, whether
// every output was correct, and the metrics:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (see endToEnd);
// with --trace 1 the run is traced and the metrics are the per-layer ones
// (see layerMetrics). The benchmark measures every layer from outside: it
// times its own calls into each layer's public functions and adds no
// timing code to the program under test.
//
// Workloads (README.md records why each was chosen):
//
//	paper-suite  repeated quick passes of every registered experiment
//	million      the exact million-tag preset on the batch engine
//	service-mix  a closed loop of two clients against an in-process fdnetd
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// setupChildEnv names the environment variable that turns a process
// into a set-up child: it builds the named workload's system under test,
// reports ready and exits (see measureSetup).
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

func main() {
	if name := os.Getenv(setupChildEnv); name != "" {
		os.Exit(runSetupChild(name, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line arguments of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-suite, million or service-mix")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the span dump of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := workloadByName(o.workload)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", o.workload, workloadNames())
		return 2
	case o.seconds <= 0 || (trace != 0 && trace != 1):
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := measure(w, o, fullScale, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs one workload and returns its result. Untraced runs time
// the set-up and then the operations; traced runs split the time between
// untraced and traced operations (their difference is the tracing
// overhead) and then run every layer probe. The human-readable report
// goes to w.
func measure(wl *workload, o options, sc scale, w io.Writer) (*result, error) {
	env := newEnvStamp(wl, o)
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", wl.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "env: %s\n", env)

	ms := metricSet{}
	var setup []float64
	if !o.trace {
		var err error
		if setup, err = measureSetup(wl.name, setupRuns); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	sess, err := wl.prepare(o.seed, sc)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	var ops *opLog
	if !o.trace {
		ops = sess.run(time.Now().Add(dur), nil)
		sess.close()
		if err := ms.setEndToEnd(ops, setup); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "tail: op_ms_p99=%.6g first_ms_p99=%.6g over %d verified operations (reported, not bounded)\n",
			quantile(ops.opMs, 0.99), quantile(ops.firstMs, 0.99), len(ops.opMs))
	} else {
		// Untraced and traced phases alternate, so drift over the run
		// (warm caches, a neighbour's load) cancels out of the overhead.
		// A traced million run takes the streaming path, so its untraced
		// phases here do too: the overhead is then the spans' alone, not
		// the streaming observer's (netsim.observe_ms measures that).
		if m, ok := sess.(*millionSession); ok {
			m.streamed = true
		}
		tr := newTracer()
		var plain, traced []*opLog
		for i := 0; i < 2; i++ {
			plain = append(plain, sess.run(time.Now().Add(dur/4), nil))
			traced = append(traced, sess.run(time.Now().Add(dur/4), tr))
		}
		sess.close()
		p, t := joinLogs(plain), joinLogs(traced)
		ops = joinLogs([]*opLog{p, t})
		spans := tr.finish()
		var wall, cov time.Duration
		for _, l := range traced {
			from, to := l.start.Sub(tr.epoch), l.end.Sub(tr.epoch)
			wall += to - from
			cov += covered(rootIntervals(spans), from, to)
		}
		base := median(p.opMs)
		over := median(t.opMs) - base
		ms.set("spans.coverage_frac", float64(cov)/float64(wall))
		ms.set("spans.overhead_ms", over)
		ms.set("spans.overhead_frac", over/base)
		printSpanTable(w, wl.name, spans, wall)
		fmt.Fprintf(w, "trace: spans cover %.2f%% of %.3f s traced wall time; tracing overhead %+.3f ms per operation (%+.2f%% of %.3f ms)\n",
			100*float64(cov)/float64(wall), wall.Seconds(), over, 100*over/base, base)
		if err := dumpSpans(o.out, wl.name, o.seed, env, spans); err != nil {
			return nil, err
		}
		pc, err := layerProbes(o.seed, sc, ms)
		if err != nil {
			return nil, err
		}
		ops.attempted += pc.attempted
		ops.failed += pc.failed
	}
	if err := ms.complete(o.trace, ops.failed > 0); err != nil {
		return nil, err
	}
	ms.print(w, o.trace)
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", ops.attempted, ops.failed)
	if ops.attempted == 0 {
		return nil, errors.New("no operation ran")
	}
	return &result{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   ms.out(o.trace),
	}, nil
}

// dumpSpans writes the traced run's spans and environment as JSON.
func dumpSpans(dir, workload string, seed uint64, env envStamp, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), data, 0o644)
}

// peakRSSMB is the process's peak resident set so far, in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
