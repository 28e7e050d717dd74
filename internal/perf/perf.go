// Package perf holds HostCPUModel, the CPU-model probe behind the
// environment stamp perfbench prints. perfbench/workloads.go imports
// it, and moving it into perfbench waits for a change to the benchmark
// itself. Timing, reports and the regression gate live in perfbench and
// the CI perf job, not here.
package perf

import (
	"os"
	"strings"
)

// HostCPUModel reads the CPU model name from /proc/cpuinfo, or returns
// "" where that interface does not exist (non-Linux hosts).
func HostCPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}
