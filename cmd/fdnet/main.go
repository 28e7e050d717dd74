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
//
// Overrides (-tags, -topology, -radius, -load, -protocol, -readers,
// -scheduling, -mobility, -rateadapt, -faderho, -policy, -congestion,
// -analytic) apply on top of the preset or file; everything else comes
// from the scenario.
// Runs are deterministic: same scenario + seed, same output — at ANY
// -workers count (sharding changes who computes, never what). The
// resolved worker count goes to stderr so stdout stays byte-stable.
// -summary skips the per-tag table (a million-tag table is ~100 MB)
// and prints only the aggregate block. -format accepts text or csv;
// any other value exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/netsim"
	"repro/internal/trace"
)

func main() {
	var (
		presets    = flag.Bool("presets", false, "list built-in scenarios and exit")
		preset     = flag.String("preset", "", "built-in scenario name")
		file       = flag.String("scenario", "", "scenario JSON file")
		seed       = flag.Uint64("seed", 1, "random seed")
		format     = flag.String("format", "text", "output format: text or csv")
		tags       = flag.Int("tags", 0, "override tag count")
		topology   = flag.String("topology", "", "override topology (grid, uniform-disc, clustered, cells)")
		radius     = flag.Float64("radius", 0, "override deployment radius (m)")
		load       = flag.Float64("load", 0, "override offered load (frames/tag/round)")
		protocol   = flag.String("protocol", "", "override MAC protocol (full-duplex, stop-and-wait, block-ack)")
		readers    = flag.Int("readers", 0, "override reader count")
		scheduling = flag.String("scheduling", "", "override reader scheduling (independent, tdm)")
		mobility   = flag.Float64("mobility", 0, "enable waypoint mobility with this drift step (m/epoch)")
		rateadapt  = flag.String("rateadapt", "", "enable closed-loop rate adaptation with this policy (fixed, arf, fd)")
		fadeRho    = flag.Float64("faderho", -1, "override the per-chunk fading correlation, in [0, 1)")
		policy     = flag.String("policy", "", "override reader admission policy (aloha, fifo, prop-fair, deadline)")
		congestion = flag.String("congestion", "", "enable closed-loop congestion control with this controller (cubic)")
		workers    = flag.Int("workers", 0, "engine workers (0 = one per CPU); the result is identical at any count")
		analytic   = flag.Bool("analytic", false, "use the closed-form analytic engine (delivery-tight, airtime-optimistic)")
		summary    = flag.Bool("summary", false, "print only the aggregate block, not the per-tag table")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "fdnet: -format %q: must be text or csv\n", *format)
		os.Exit(2)
	}

	if *presets || (*preset == "" && *file == "") {
		fmt.Println("built-in scenarios:")
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
			fmt.Printf("  %-14s %d tags, %s, r=%gm%s\n", name, sc.Tags, sc.Topology, sc.RadiusM, extra)
		}
		if !*presets {
			fmt.Println("\nrun one with: fdnet -preset <name>   (or -scenario <file.json>)")
		}
		return
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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *tags > 0 {
		sc.Tags = *tags
	}
	if *topology != "" {
		sc.Topology = *topology
	}
	if *radius > 0 {
		sc.RadiusM = *radius
	}
	if *load > 0 {
		sc.OfferedLoad = *load
	}
	if *protocol != "" {
		sc.Protocol = *protocol
	}
	if *readers > 0 {
		sc.Readers.Count = *readers
	}
	if *scheduling != "" {
		sc.Readers.Scheduling = *scheduling
	}
	if *mobility > 0 {
		sc.Mobility.Model = netsim.MobilityWaypoint
		sc.Mobility.StepM = *mobility
	}
	if *rateadapt != "" {
		sc.RateAdapt.Adapter = *rateadapt
	}
	if *fadeRho >= 0 {
		sc.RateAdapt.FadeRho = *fadeRho
	}
	if *policy != "" {
		sc.Readers.Policy = *policy
	}
	if *congestion != "" {
		sc.Congestion.Controller = *congestion
	}
	if *analytic {
		sc.Analytic = true
	}

	nw := netsim.ResolveWorkers(*workers)
	engine := "exact"
	if sc.Analytic {
		engine = "analytic"
	}
	// Run header goes to stderr: stdout is the deterministic artifact
	// (byte-identical at any worker count) and must not depend on the
	// machine's CPU count.
	fmt.Fprintf(os.Stderr, "fdnet: %s seed=%d workers=%d engine=%s\n", sc.Name, *seed, nw, engine)

	res, err := netsim.RunParallel(sc, *seed, nw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	adapt := res.Scenario.RateAdapt.Adapter != ""
	if *summary {
		printAggregates(res, os.Stdout)
		return
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
		err = tbl.WriteCSV(os.Stdout)
	} else {
		err = tbl.WriteText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *format != "csv" {
		printAggregates(res, os.Stdout)
	}
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
