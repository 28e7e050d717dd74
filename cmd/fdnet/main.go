// Command fdnet runs one multi-tag network scenario (internal/netsim)
// and prints per-tag, per-reader and cell-level statistics.
//
// Usage:
//
//	fdnet -presets                     # list built-in scenarios
//	fdnet -preset warehouse            # run a built-in scenario
//	fdnet -scenario deploy.json        # run a scenario from JSON
//	fdnet -preset warehouse -tags 64   # override the population
//	fdnet -preset mall-cells -readers 8 -scheduling tdm
//	fdnet -preset sparse-field -mobility 2
//	fdnet -preset fading-aisle -rateadapt arf       # swap the policy
//	fdnet -preset warehouse -rateadapt fd -faderho 0.95
//	fdnet -preset lab-bench -format csv -seed 7
//	fdnet -preset warehouse -workers 8      # shard the engine
//	fdnet -preset million -analytic -summary
//	fdnet -preset congested-dock -policy fifo       # swap admission
//	fdnet -preset warehouse -congestion cubic -load 1.5
//	fdnet -preset million -summary -cpuprofile cpu.prof -memprofile mem.prof
//	fdnet -preset million -summary -workers 2 -phases
//
// Overrides (-tags, -topology, -radius, -load, -protocol, -readers,
// -scheduling, -mobility, -rateadapt, -faderho, -policy, -congestion,
// -analytic) apply on top of the preset or file, each setting the
// scenario knob its JSON path names (see overrides); everything else
// comes from the scenario. A flag passed at its default overrides
// nothing. Exit codes: 0 on success; 2 for a usage error, including a
// negative or non-finite numeric override; 1 when the scenario fails
// to load or validate, including an override outside its knob's bounds.
// Runs are deterministic: same scenario + seed, same output — at ANY
// -workers count (sharding changes who computes, never what). The
// resolved worker count goes to stderr so stdout stays byte-stable.
// -summary skips the per-tag table (a million-tag table is ~100 MB)
// and prints only the aggregate block. -format accepts text or csv;
// any other value exits 2. -cpuprofile/-memprofile write pprof profiles
// of the run, as fdbench's do; stdout is unchanged. -phases prints the
// engine's phase table to stderr: each phase's wall milliseconds, its
// share, how often it ran and each worker's busy time in it, then how
// much of the run's wall time the phases cover; stdout is unchanged.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run carries the whole command so the CPU profile flushes on every
// exit path; os.Exit skips deferred calls, which would leave
// -cpuprofile truncated on an error exit.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("fdnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		presets = fs.Bool("presets", false, "list built-in scenarios and exit")
		preset  = fs.String("preset", "", "built-in scenario name")
		file    = fs.String("scenario", "", "scenario JSON file")
		seed    = fs.Uint64("seed", 1, "random seed")
		format  = fs.String("format", "text", "output format: text or csv")
		workers = fs.Int("workers", 0, "engine workers (0 = one per CPU); the result is identical at any count")
		summary = fs.Bool("summary", false, "print only the aggregate block, not the per-tag table")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file")
		phases  = fs.Bool("phases", false, "print the engine's per-phase time table to stderr; stdout is unchanged")
	)
	// Override flags, read back by name through overrides.
	fs.Int("tags", 0, "override tag count")
	fs.String("topology", "", "override topology (grid, uniform-disc, clustered, cells)")
	fs.Float64("radius", 0, "override deployment radius (m)")
	fs.Float64("load", 0, "override offered load (frames/tag/round)")
	fs.String("protocol", "", "override MAC protocol (full-duplex, stop-and-wait, block-ack)")
	fs.Int("readers", 0, "override reader count")
	fs.String("scheduling", "", "override reader scheduling (independent, tdm)")
	fs.Float64("mobility", 0, "enable waypoint mobility with this drift step (m/epoch)")
	fs.String("rateadapt", "", "enable closed-loop rate adaptation with this policy (fixed, arf, fd)")
	fs.Float64("faderho", -1, "override the per-chunk fading correlation, in [0, 1)")
	fs.String("policy", "", "override reader admission policy (aloha, fifo, prop-fair, deadline)")
	fs.String("congestion", "", "enable closed-loop congestion control with this controller (cubic)")
	fs.Bool("analytic", false, "use the closed-form analytic engine (delivery-tight, airtime-optimistic)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(stderr, "fdnet: -format %q: must be text or csv\n", *format)
		return 2
	}
	// A flag passed at its default overrides nothing, so -faderho's
	// unset sentinel (-1) and a zero -tags keep the scenario's value. A
	// negative or non-finite number is a mistake, not a request for the
	// scenario's value: it exits 2 before anything is loaded.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var pending [][2]string // {json path, value}
	for _, o := range overrides {
		if !set[o.flag] {
			continue
		}
		f := fs.Lookup(o.flag)
		v := f.Value.String()
		if n, ok := number(f); ok {
			if !(n >= 0) || math.IsInf(n, 1) {
				fmt.Fprintf(stderr, "fdnet: -%s %s: must be finite and not negative\n", o.flag, v)
				return 2
			}
			if d, _ := strconv.ParseFloat(f.DefValue, 64); n == d {
				continue
			}
		} else if v == f.DefValue {
			continue
		}
		pending = append(pending, [2]string{o.path, v})
		if o.flag == "mobility" { // a drift step implies the waypoint walk
			pending = append(pending, [2]string{"mobility.model", netsim.MobilityWaypoint})
		}
	}

	if *presets || (*preset == "" && *file == "") {
		fmt.Fprintln(stdout, "built-in scenarios:")
		for _, name := range netsim.PresetNames() {
			sc, _ := netsim.Preset(name)
			sc.ApplyDefaults()
			extra := ""
			if sc.Readers.Count > 1 {
				extra += fmt.Sprintf(", %d readers (%s)", sc.Readers.Count, sc.Readers.Scheduling)
			}
			if sc.Mobility.Model == netsim.MobilityWaypoint {
				extra += fmt.Sprintf(", mobile (%.3gm/epoch)", sc.Mobility.StepM)
			}
			if sc.RateAdapt.Adapter != "" {
				extra += fmt.Sprintf(", rate-adapt %s (fade rho %.3g)", sc.RateAdapt.Adapter, sc.RateAdapt.FadeRho)
			}
			if sc.Congestion.Controller != "" {
				extra += fmt.Sprintf(", congestion %s", sc.Congestion.Controller)
			}
			if sc.Readers.Policy != netsim.PolicyAloha {
				extra += fmt.Sprintf(", policy %s", sc.Readers.Policy)
			}
			if len(sc.Faults.Events) > 0 || sc.Faults.OutageRate > 0 || sc.Faults.InterferenceRate > 0 || sc.Faults.ChurnRate > 0 {
				extra += ", faults"
			}
			fmt.Fprintf(stdout, "  %-14s %d tags, %s, r=%gm%s\n", name, sc.Tags, sc.Topology, sc.RadiusM, extra)
		}
		if !*presets {
			fmt.Fprintln(stdout, "\nrun one with: fdnet -preset <name>   (or -scenario <file.json>)")
		}
		return 0
	}

	var sc netsim.Scenario
	var err error
	switch {
	case *preset != "" && *file != "":
		err = fmt.Errorf("use -preset or -scenario, not both")
	case *preset != "":
		sc, err = netsim.Preset(*preset)
	default:
		sc, err = netsim.LoadScenario(*file)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, kv := range pending {
		if err := sc.SetKnob(kv[0], kv[1]); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	nw := netsim.ResolveWorkers(*workers)
	engine := "exact"
	if sc.Analytic {
		engine = "analytic"
	}
	// Run header goes to stderr: stdout is the deterministic artifact
	// (byte-identical at any worker count) and must not depend on the
	// machine's CPU count.
	fmt.Fprintf(stderr, "fdnet: %s seed=%d workers=%d engine=%s\n", sc.Name, *seed, nw, engine)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintln(stderr, err)
				code = 1
			}
		}()
	}
	var res *netsim.NetResult
	if *phases {
		start := time.Now()
		pt := netsim.NewPhaseTimes(func() int64 { return int64(time.Since(start)) })
		res, err = netsim.RunPhased(sc, *seed, nw, pt)
		wall := time.Since(start)
		if err == nil {
			err = pt.WriteTable(stderr, int64(wall))
		}
	} else {
		res, err = netsim.RunParallel(sc, *seed, nw)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	adapt := res.Scenario.RateAdapt.Adapter != ""
	if *summary {
		printAggregates(res, stdout)
		return 0
	}
	cols := []string{"tag", "reader", "dist_m", "snr_db", "chunk_loss", "fb_ber",
		"offered", "delivered", "dropped", "collisions", "outage", "alive"}
	if adapt {
		cols = append(cols, "mean_mult", "rate_switches", "lag_frac")
	}
	tbl := trace.NewTable(fmt.Sprintf("%s: per-tag outcomes (seed %d)", res.Scenario.Name, *seed), cols...)
	for _, t := range res.Tags {
		alive := "yes"
		if !t.Alive {
			alive = "no"
		}
		row := []any{t.ID, t.Reader, t.DistanceM, t.SNRdB, t.ChunkLossProb, t.FeedbackBER,
			t.FramesOffered, t.FramesDelivered, t.FramesDropped, t.Collisions,
			t.OutageFraction, alive}
		if adapt {
			lag := 0.0
			if t.AdaptChunks > 0 {
				lag = float64(t.AdaptLagChunks) / float64(t.AdaptChunks)
			}
			row = append(row, t.MeanRateMult, t.RateSwitches, lag)
		}
		tbl.AddRow(row...)
	}
	if *format == "csv" {
		err = tbl.WriteCSV(stdout)
	} else {
		err = tbl.WriteText(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *format != "csv" {
		printAggregates(res, stdout)
	}
	return 0
}

// overrides maps each override flag to the scenario knob it sets, by
// JSON path; Validate then bounds the result like any scenario value.
var overrides = []struct{ flag, path string }{
	{"tags", "tags"}, {"topology", "topology"}, {"radius", "radius_m"},
	{"load", "offered_load"}, {"protocol", "protocol"},
	{"readers", "readers.count"}, {"scheduling", "readers.scheduling"},
	{"mobility", "mobility.step_m"}, {"rateadapt", "rate_adapt.adapter"},
	{"faderho", "rate_adapt.fade_rho"}, {"policy", "readers.policy"},
	{"congestion", "congestion.controller"}, {"analytic", "analytic"},
}

// number reads a numeric flag's value; ok is false for string and bool
// flags.
func number(f *flag.Flag) (n float64, ok bool) {
	switch v := f.Value.(flag.Getter).Get().(type) {
	case int:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// writeHeapProfile writes a pprof heap profile, taken after a GC, to
// path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printAggregates writes the reader and cell-level summary block — the
// whole output in -summary mode, the table's tail otherwise.
func printAggregates(res *netsim.NetResult, w io.Writer) {
	if len(res.Readers) > 1 {
		fmt.Fprintf(w, "\nreaders (%s, %s):\n", res.Scenario.Readers.Scheduling, res.Scenario.Readers.Policy)
		for _, r := range res.Readers {
			fmt.Fprintf(w, "  reader %d at (%+.1f, %+.1f): %d tags, delivered %d, slots single/collision %d/%d",
				r.ID, r.X, r.Y, r.AssociatedTags, r.FramesDelivered,
				r.SingletonSlots, r.CollisionSlots)
			if r.QueueDepth > 0 {
				fmt.Fprintf(w, ", backlog %d", r.QueueDepth)
			}
			if r.SaturationOnset > 0 {
				fmt.Fprintf(w, ", saturated @%d", r.SaturationOnset)
				if r.RecoveryRound > 0 {
					fmt.Fprintf(w, " recovered @%d", r.RecoveryRound)
				}
			}
			if r.OutageRounds > 0 {
				fmt.Fprintf(w, ", down %d rounds", r.OutageRounds)
			}
			if r.InterferenceRounds > 0 {
				fmt.Fprintf(w, ", interfered %d rounds", r.InterferenceRounds)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\nrounds %d  slots idle/single/collision %d/%d/%d  elapsed %d B (%.3f s)\n",
		res.Rounds, res.IdleSlots, res.SingletonSlots, res.CollisionSlots,
		res.ElapsedBytes, res.SimulatedS)
	fmt.Fprintf(w, "delivered %d/%d frames (%.3f), throughput %.4f B/B, collisions %.3f, fairness %.3f, alive %.2f\n",
		res.FramesDelivered, res.FramesOffered, res.DeliveryRate(),
		res.Throughput(), res.CollisionFraction(), res.FairnessIndex(), res.AliveFraction())
	if res.Scenario.RateAdapt.Adapter != "" {
		fmt.Fprintf(w, "rate adaptation (%s, fade rho %.3g): mean mult %.2fx, %d switches, lag %.3f over %d chunks\n",
			res.Scenario.RateAdapt.Adapter, res.Scenario.RateAdapt.FadeRho,
			res.MeanRateMult(), res.RateSwitches, res.AdaptLagFraction(), res.AdaptChunks)
	}
	if res.Scenario.Congestion.Controller != "" {
		fmt.Fprintf(w, "congestion (%s): %d timeouts, %d retransmissions, %d retx-dropped, mean cwnd %.2f\n",
			res.Scenario.Congestion.Controller, res.Timeouts, res.Retransmissions,
			res.RetxDropped, res.MeanCwnd())
	}
}
