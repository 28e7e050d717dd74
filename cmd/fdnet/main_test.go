package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOverrideExitCodes pins fdnet's exit code for every override flag:
// a valid value runs (0), a negative or non-finite number is a usage
// error (2), and a value of the right sign that the scenario's bounds
// reject fails validation (1).
func TestOverrideExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-tags", "8"}, 0},
		{[]string{"-tags", "0"}, 0},
		{[]string{"-tags", "-1"}, 2},
		{[]string{"-tags", "NaN"}, 2},
		{[]string{"-tags", "8388608"}, 1},

		{[]string{"-topology", "uniform-disc"}, 0},
		{[]string{"-topology", "hexagon"}, 1},

		{[]string{"-radius", "3"}, 0},
		{[]string{"-radius", "0"}, 0},
		{[]string{"-radius", "-1"}, 2},
		{[]string{"-radius", "NaN"}, 2},
		{[]string{"-radius", "+Inf"}, 2},
		{[]string{"-radius", "-Inf"}, 2},
		{[]string{"-radius", "20000"}, 1},

		{[]string{"-load", "0.5"}, 0},
		{[]string{"-load", "-0.5"}, 2},
		{[]string{"-load", "NaN"}, 2},
		{[]string{"-load", "3e9"}, 1},

		{[]string{"-protocol", "block-ack"}, 0},
		{[]string{"-protocol", "csma"}, 1},

		{[]string{"-readers", "2"}, 0},
		{[]string{"-readers", "0"}, 0},
		{[]string{"-readers", "-1"}, 2},
		{[]string{"-readers", "65"}, 1},

		{[]string{"-scheduling", "tdm"}, 0},
		{[]string{"-scheduling", "fdm"}, 1},

		{[]string{"-mobility", "0.5"}, 0},
		{[]string{"-mobility", "-1"}, 2},
		{[]string{"-mobility", "NaN"}, 2},
		{[]string{"-mobility", "20000"}, 1},

		{[]string{"-rateadapt", "fd"}, 0},
		{[]string{"-rateadapt", "aimd"}, 1},

		{[]string{"-rateadapt", "fd", "-faderho", "0.9"}, 0},
		{[]string{"-rateadapt", "fd", "-faderho", "0"}, 0},
		{[]string{"-faderho", "-1"}, 2},
		{[]string{"-faderho", "-0.1"}, 2},
		{[]string{"-faderho", "NaN"}, 2},
		{[]string{"-faderho", "1.5"}, 1},
		{[]string{"-rateadapt", "fd", "-faderho", "1"}, 1},
		{[]string{"-faderho", "0.5"}, 1}, // no adapter to fade under

		{[]string{"-policy", "fifo"}, 0},
		{[]string{"-policy", "round-robin"}, 1},

		{[]string{"-congestion", "cubic"}, 0},
		{[]string{"-congestion", "reno"}, 1},

		{[]string{"-analytic"}, 0},
		{[]string{"-analytic=false"}, 0},
	}
	for _, c := range cases {
		args := append([]string{"-preset", "lab-bench", "-summary", "-workers", "1"}, c.args...)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != c.want {
			t.Errorf("fdnet %s: exit %d, want %d; stderr %q", strings.Join(c.args, " "), code, c.want, errb.String())
		}
	}
}

// TestUsageExitCodes pins the exit codes outside the override flags.
func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-presets"}, 0},
		{[]string{"-h"}, 0},
		{[]string{"-preset", "lab-bench", "-format", "cvs"}, 2},
		{[]string{"-bogus"}, 2},
		{[]string{"-preset", "atlantis"}, 1},
		{[]string{"-preset", "lab-bench", "-scenario", "x.json"}, 1},
		{[]string{"-scenario", "no-such-file.json"}, 1},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != c.want {
			t.Errorf("fdnet %s: exit %d, want %d; stderr %q", strings.Join(c.args, " "), code, c.want, errb.String())
		}
	}
}

// TestPhasesLeavesStdout checks that -phases prints the phase table to
// stderr and leaves stdout byte-identical. The table's rows are
// netsim's TestPhaseTimes to check.
func TestPhasesLeavesStdout(t *testing.T) {
	args := []string{"-preset", "mobile-fleet", "-workers", "2"}
	var plain, phased, errPlain, errPhased bytes.Buffer
	if code := run(args, &plain, &errPlain); code != 0 {
		t.Fatalf("fdnet %s: exit %d; stderr %q", strings.Join(args, " "), code, errPlain.String())
	}
	if code := run(append(args, "-phases"), &phased, &errPhased); code != 0 {
		t.Fatalf("fdnet -phases: exit %d; stderr %q", code, errPhased.String())
	}
	if !bytes.Equal(plain.Bytes(), phased.Bytes()) {
		t.Fatal("-phases changed stdout")
	}
	if !strings.Contains(errPhased.String(), "phases cover ") {
		t.Errorf("stderr has no coverage line:\n%s", errPhased.String())
	}
}
