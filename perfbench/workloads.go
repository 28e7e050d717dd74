package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/perf"
)

const (
	// defaultSeed is the seed the CLIs default to; outputs at this seed
	// are also checked against the digests pinned in digests.go.
	defaultSeed = 1
	// workers is the engine and harness worker count of every workload:
	// the benchmark machine has two CPUs.
	workers = 2
	// setupRuns is how many fresh processes set up each workload per run.
	setupRuns = 41
)

// scale sizes the work inside one operation and the layer probes. The
// command always runs fullScale; the tests shrink it.
type scale struct {
	// millionTags is the million preset's tag count (0: its own 2^20).
	millionTags int
	// experiments restricts a suite pass to these ids (nil: all).
	experiments []string
	// probeTime is the minimum timing window of one link or MAC probe.
	probeTime time.Duration
	// passes is how many suite passes the bench probe times per worker
	// count.
	passes int
	// svcTime is the length of each closed loop the service probe runs.
	svcTime time.Duration
}

var fullScale = scale{probeTime: 200 * time.Millisecond, passes: 3, svcTime: time.Second}

// session is a prepared workload: inputs generated, references computed.
type session interface {
	// run executes operations until the deadline (at least one) and
	// returns their log. A nil tracer runs untraced.
	run(deadline time.Time, tr *tracer) *opLog
	close()
}

// workload is one named set of inputs. Why each exists, which layers it
// loads and which it bypasses is recorded in BENCHMARK.json and in the
// README next to this file.
type workload struct {
	name string
	// clients is the number of concurrent client connections (0 for
	// the in-process workloads).
	clients int
	// setUp builds the system under test as a fresh process would before
	// its first operation, and returns its teardown.
	setUp func() (func(), error)
	// prepare generates the inputs from the seed and computes the
	// references every operation is checked against.
	prepare func(seed uint64, sc scale) (session, error)
}

var workloads = []*workload{
	{name: "paper-suite", setUp: setUpSuite, prepare: prepareSuite},
	{name: "million", setUp: setUpMillion, prepare: prepareMillion},
	{name: "service-mix", clients: svcClients, setUp: setUpService, prepare: prepareService},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runSetupChild is the whole life of a set-up child process: set up,
// say "ready", tear down.
func runSetupChild(name string, stdout io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: set-up child: unknown workload %q\n", name)
		return 2
	}
	teardown, err := w.setUp()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up child: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	teardown()
	return 0
}

// measureSetup starts n fresh processes of this executable in set-up
// mode, one after another, and returns each one's time from start to
// "ready" in seconds. It waits for every child to exit.
func measureSetup(name string, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupChildEnv+"="+name)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		ready := time.Since(start)
		waitErr := cmd.Wait()
		switch {
		case readErr != nil:
			return nil, fmt.Errorf("set-up child: %w", readErr)
		case waitErr != nil:
			return nil, fmt.Errorf("set-up child: %w", waitErr)
		case line != "ready\n":
			return nil, fmt.Errorf("set-up child said %q", line)
		}
		out = append(out, ready.Seconds())
	}
	return out, nil
}

// envStamp records what a measurement depends on besides the code, so a
// hardware change is never read as a code change.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
}

func newEnvStamp(w *workload, o options) envStamp {
	return envStamp{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: perf.HostCPUModel(), Commit: commitID(), Workload: w.name, Seed: o.seed,
		Workers: workers, Clients: w.clients,
	}
}

func (e envStamp) String() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d num_cpu=%d cpu=%q commit=%s seed=%d workers=%d clients=%d",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Commit, e.Seed, e.Workers, e.Clients)
}

// commitID names the code under test by a digest of the module's Go
// sources and go.mod under the working directory. The benchmark runs
// from the repository root, which need not be a git checkout, so a VCS
// revision is not always there to read.
func commitID() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func sha256hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
