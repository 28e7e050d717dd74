// Command fdbench regenerates the evaluation's figures and tables.
//
// Usage:
//
//	fdbench -list                 # show every experiment
//	fdbench -run fig4             # run one experiment (text table)
//	fdbench -run all -quick       # everything, reduced trials
//	fdbench -run fig1 -format csv # machine-readable output
//	fdbench -run fig6 -seed 7     # different random seed
//	fdbench -run fig1 -parallel 1 # force serial (output is identical)
//	fdbench -run fig1 -cpuprofile cpu.prof -memprofile mem.prof
//
// Experiments run their parameter cells on a worker pool; -parallel
// sets the pool size (0 = all CPUs). Output is byte-identical at any
// worker count for the same seed. -format accepts text or csv; any
// other value exits 2. -cpuprofile/-memprofile write pprof profiles
// so hotspots can be localised without editing code. Timing lives in
// the repository benchmark (perfbench), which reports per-experiment
// medians over repeated passes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

// run carries the whole command so the CPU profile (and any other
// cleanup) flushes on every exit path; os.Exit skips deferred calls,
// which would leave -cpuprofile truncated on an error exit.
func run() int {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		run      = flag.String("run", "", "experiment id to run, or 'all'")
		format   = flag.String("format", "text", "output format: text or csv")
		seed     = flag.Uint64("seed", 1, "random seed")
		quick    = flag.Bool("quick", false, "reduced trial counts")
		parallel = flag.Int("parallel", 0, "worker goroutines per experiment (0 = all CPUs, 1 = serial)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "fdbench: -format %q: must be text or csv\n", *format)
		return 2
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range bench.List() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun one with: fdbench -run <id>   (or -run all)")
		}
		return 0
	}

	var targets []bench.Experiment
	if *run == "all" {
		targets = bench.List()
	} else {
		e, err := bench.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		targets = []bench.Experiment{e}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	workers := *parallel
	if workers <= 0 {
		workers = bench.AutoWorkers()
	}
	cfg := bench.RunConfig{Seed: *seed, Quick: *quick, Workers: workers}
	for i, e := range targets {
		if i > 0 {
			fmt.Println()
		}
		res := e.Run(cfg)
		var err error
		if *format == "csv" {
			err = res.Table.WriteCSV(os.Stdout)
		} else {
			err = res.Table.WriteText(os.Stdout)
			fmt.Printf("shape: %s\n", res.Shape)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		f.Close()
	}
	return 0
}
