package perf

import (
	"os"
	"testing"
)

func TestHostCPUModel(t *testing.T) {
	// On Linux /proc/cpuinfo exists and the model is non-empty; anywhere
	// else the function must degrade to "" rather than error.
	model := HostCPUModel()
	if _, err := os.Stat("/proc/cpuinfo"); err == nil && model == "" {
		t.Skip("cpuinfo present but no 'model name' line (non-x86?)")
	}
	t.Logf("host cpu model: %q", model)
}
