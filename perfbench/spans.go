package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are offsets from the tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced runs share the code path.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name their parent before it
// has ended.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// finish returns the recorded spans ordered by start time.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// covered returns how much of [from, to) the union of the intervals
// covers.
func covered(iv [][2]time.Duration, from, to time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, x := range iv {
		lo, hi := max(x[0], from), min(x[1], to)
		if hi > lo {
			clipped = append(clipped, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range clipped {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval its child spans cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// rootIntervals returns the intervals of the root spans.
func rootIntervals(spans []span) [][2]time.Duration {
	var roots [][2]time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, [2]time.Duration{s.Start, s.End})
		}
	}
	return roots
}

// spanRow aggregates every span of one name.
type spanRow struct {
	name        string
	count       int
	total, self time.Duration
}

func spanTable(spans []span) []spanRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []spanRow
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(rows)
			idx[s.Name] = i
			rows = append(rows, spanRow{name: s.Name})
		}
		rows[i].count++
		rows[i].total += s.dur()
		rows[i].self += self[s.ID]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

// printSpanTable writes the self-time table of a traced run. Shares are
// of the traced wall time; concurrent clients can push their sum past
// 100%.
func printSpanTable(w io.Writer, workload string, spans []span, wall time.Duration) {
	fmt.Fprintf(w, "self time by span (%s, %.3f s traced wall time):\n", workload, wall.Seconds())
	fmt.Fprintf(w, "  %-22s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self_%")
	for _, r := range spanTable(spans) {
		fmt.Fprintf(w, "  %-22s %8d %12.3f %12.3f %8.2f\n", r.name, r.count, ms(r.total), ms(r.self),
			100*float64(r.self)/float64(wall))
	}
}
