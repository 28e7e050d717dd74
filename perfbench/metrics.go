package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
)

// metricDef declares one reported metric. For an end-to-end metric,
// about says what it measures; for a per-layer one, which end-to-end
// metric and workload a change measured there should move, so a later
// change can cite it by name when it claims a gain.
type metricDef struct {
	name, unit, about string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; "operation" is the workload's unit of work: a
// quick pass of the whole suite (paper-suite, suite_s), one
// exact million-preset run (million, million_s), or one streamed
// request (service-mix, svc_ttr_ms). "First" is the operation's first
// output: the first table of a pass, the first NDJSON line of a stream
// (svc_ttfl_ms), and for the batch million run its only output.
var endToEnd = []metricDef{
	{"setup_s", "s", "median wall time from process start until the system under test is ready, over several fresh processes"},
	{"op_ms_p50", "ms", "median wall time of one verified operation"},
	{"op_ms_p90", "ms", "90th percentile (nearest rank) of the operation wall time"},
	{"first_ms_p50", "ms", "median time from an operation's start to its first output"},
	{"first_ms_p90", "ms", "90th percentile (nearest rank) of the time to first output"},
	{"ops_per_s", "1/s", "verified operations completed per second of measurement"},
	{"peak_rss_mb", "MB", "peak resident memory of the benchmark process"},
}

// layerMetrics are the per-layer metrics of a traced run, in report
// order. The bench.<id>_ms entries are generated from the experiment
// registry.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricDef {
	const (
		suite   = "op_ms_p50 (paper-suite)"
		million = "op_ms_p50 and peak_rss_mb (million)"
		svc     = "op_ms_p50 and ops_per_s (service-mix)"
	)
	var defs []metricDef
	for _, e := range bench.List() {
		defs = append(defs, metricDef{"bench." + e.ID + "_ms", "ms", suite})
	}
	return append(defs, []metricDef{
		{"bench.speedup_w2", "x", suite},
		{"bench.allocs_per_pass", "count", suite},
		{"bench.alloc_mb_per_pass", "MB", suite},
		{"trace.render_ms", "ms", suite},

		{"simrand.fill_noise_ns_per_sample", "ns", suite + "; no change on million and service-mix"},
		{"simrand.fill_noise_allocs_per_op", "count", suite},
		{"simrand.fill_noise_bytes_per_op", "B", suite},
		{"sigproc.envelope_ns_per_sample", "ns", suite + "; no change on million and service-mix"},
		{"sigproc.envelope_allocs_per_op", "count", suite},
		{"sigproc.envelope_bytes_per_op", "B", suite},
		{"reader.decode_ns_per_sample", "ns", suite + "; no change on million and service-mix"},
		{"reader.decode_ns_per_call", "ns", suite + "; no change on million and service-mix"},
		{"reader.decode_allocs_per_op", "count", suite},
		{"reader.decode_bytes_per_op", "B", suite},
		{"core.transfer_frame_us", "us", suite},
		{"core.transfer_frame_allocs", "count", suite},
		{"core.transfer_frame_bytes", "B", suite},

		{"mac.fd_frame_us", "us", million + "; a little op_ms_p50 (service-mix)"},
		{"mac.fd_frame_allocs", "count", million},
		{"mac.fd_frame_bytes", "B", million},

		{"netsim.first_round_ms", "ms", million},
		{"netsim.steady_round_ms", "ms", million},
		{"netsim.epoch_round_ms", "ms", million},
		{"netsim.drain_ms", "ms", million},
		{"netsim.place_ms", "ms", million},
		{"netsim.speedup_w2", "x", million},
		{"netsim.bytes_per_tag", "B", million},
		{"netsim.gc_count", "count", million},
		{"netsim.gc_pause_ms", "ms", million},
		{"netsim.rounds", "count", "exact count: a change is a behaviour change, not a speed-up"},
		{"netsim.frames_delivered", "count", "exact count: a change is a behaviour change, not a speed-up"},
		{"netsim.mac_attempts", "count", "exact count: a change is a behaviour change, not a speed-up"},
		{"netsim.singleton_slots", "count", "exact count: a change is a behaviour change, not a speed-up"},
		{"netsim.collision_slots", "count", "exact count: a change is a behaviour change, not a speed-up"},
		{"netsim.delivered_per_attempt", "ratio", "exact ratio of useful outcomes to attempts"},
		{"netsim.collision_frac", "ratio", "exact ratio of collision to busy slots"},
		{"netsim.observe_ms", "ms", "op_ms_p50 (service-mix); no change on million, which runs the batch path"},
		{"netsim.stream_engine_ms", "ms", svc},
		{"netsim.replay_ms", "ms", "first_ms_p90 (service-mix)"},

		{"netsvc.reference_stream_ms", "ms", svc},
		{"netsvc.encode_ms", "ms", svc},
		{"netsvc.handler_ms_p50", "ms", "first_ms_p50 and first_ms_p90 (service-mix)"},
		{"netsvc.server_first_write_ms_p50", "ms", "first_ms_p50 and first_ms_p90 (service-mix)"},
		{"netsvc.http_overhead_ms", "ms", "first_ms_p50 and op_ms_p50 (service-mix)"},
		{"netsvc.bytes_per_stream", "B", "ops_per_s (service-mix)"},
		{"netsvc.lines_per_stream", "count", "ops_per_s (service-mix)"},
		{"netsvc.allocs_per_request", "count", "ops_per_s (service-mix)"},
		{"netsvc.alloc_kb_per_request", "KB", "ops_per_s (service-mix)"},
		{"netsvc.rejected_429", "count", "ops_per_s (service-mix); expected 0"},

		{"spans.coverage_frac", "ratio", "share of the traced wall time the spans account for (at least 0.95)"},
		{"spans.overhead_ms", "ms", "tracing overhead per operation: traced minus untraced median"},
		{"spans.overhead_frac", "ratio", "tracing overhead as a share of the untraced median"},
	}...)
}

// metricSet collects one run's metric values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// setEndToEnd fills the end-to-end metrics from an untraced run.
func (m metricSet) setEndToEnd(ops *opLog, setup []float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("setup_s", median(setup))
	m.set("op_ms_p50", median(ops.opMs))
	m.set("op_ms_p90", quantile(ops.opMs, 0.90))
	m.set("first_ms_p50", median(ops.firstMs))
	m.set("first_ms_p90", quantile(ops.firstMs, 0.90))
	m.set("ops_per_s", float64(len(ops.opMs))/ops.end.Sub(ops.start).Seconds())
	m.set("peak_rss_mb", rss)
	return nil
}

func defsFor(trace bool) []metricDef {
	if trace {
		return layerMetrics
	}
	return endToEnd
}

// complete reports a declared metric the run failed to produce. A value
// that is not a finite number is an error too, unless operations failed
// (a latency over no verified operation); then it reads 0 and the result
// is marked incorrect.
func (m metricSet) complete(trace, failures bool) error {
	for _, d := range defsFor(trace) {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if !failures {
				return fmt.Errorf("metric %s is %v", d.name, v)
			}
			m[d.name] = 0
		}
	}
	return nil
}

// out returns exactly the declared metrics of the run's mode.
func (m metricSet) out(trace bool) map[string]metric {
	res := make(map[string]metric)
	for _, d := range defsFor(trace) {
		res[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return res
}

func (m metricSet) print(w io.Writer, trace bool) {
	for _, d := range defsFor(trace) {
		fmt.Fprintf(w, "metric %-36s %14.6g %-6s  %s\n", d.name, m[d.name], d.unit, d.about)
	}
}

// opLog records the operations of one measured phase. Only verified
// operations contribute latency samples; a failed one counts in failed.
type opLog struct {
	mu                sync.Mutex
	attempted, failed int64
	opMs, firstMs     []float64
	start, end        time.Time
}

func newOpLog() *opLog { return &opLog{start: time.Now()} }

func (l *opLog) add(op, first time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if !ok {
		l.failed++
		return
	}
	l.opMs = append(l.opMs, ms(op))
	l.firstMs = append(l.firstMs, ms(first))
}

// done stamps the end of the phase and returns the log.
func (l *opLog) done() *opLog {
	l.end = time.Now()
	return l
}

// joinLogs pools the operations and samples of several phases.
func joinLogs(logs []*opLog) *opLog {
	out := &opLog{start: logs[0].start, end: logs[len(logs)-1].end}
	for _, l := range logs {
		out.attempted += l.attempted
		out.failed += l.failed
		out.opMs = append(out.opMs, l.opMs...)
		out.firstMs = append(out.firstMs, l.firstMs...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (NaN when empty, which complete
// reports as a missing measurement).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs. With fewer than
// 1/(1-q) samples it is the maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
