package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStdoutGolden pins the per-frame lines and summary byte for byte.
// The goldens are the output of the former cmd/fdsim, whose flags and
// report iqtrace took over.
func TestStdoutGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"default.txt", nil},
		{"interferer-duty0.5-early.txt", []string{"-interferer", "-duty", "0.5", "-early"}},
		{"frames5-dist6-noise-90.txt", []string{"-frames", "5", "-dist", "6", "-noise", "-90"}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: stdout differs from testdata/%s:\n%s", c.args, c.golden, stdout.String())
		}
	}
}

// traceDigest is the sha256 of the -frames 1 -payload 64 CSV trace.
const traceDigest = "87f54546d605900f53f230114e62ce240c2de6eb45cc4469a94c224977c54ed4"

// TestTraceCSV pins the sample trace and checks that writing it leaves
// stdout unchanged.
func TestTraceCSV(t *testing.T) {
	args := []string{"-frames", "1", "-payload", "64"}
	var plain, traced, stderr bytes.Buffer
	if code := run(args, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if code := run(append(args, "-out", path), &traced, &stderr); code != 0 {
		t.Fatalf("-out: exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Errorf("-out changed stdout:\n%s\nwant:\n%s", traced.String(), plain.String())
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "frame,sample,tx_env,incident_env,rx_env,tag_state\n0,0,") {
		t.Fatalf("trace header or first row unexpected:\n%.120s", csv)
	}
	sum := sha256.Sum256(csv)
	if got := hex.EncodeToString(sum[:]); got != traceDigest {
		t.Errorf("trace sha256 = %s, want %s", got, traceDigest)
	}
}

func TestExitCodes(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "missing", "trace.csv")
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-frames", "1", "-payload", "16"}, 0},
		{[]string{"-stats"}, 2},
		{[]string{"-chunk", "256"}, 2},
		{[]string{"-payload", "-1"}, 2},
		{[]string{"-frames", "1", "-out", unwritable}, 1},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(c.args, &stdout, &stderr); got != c.want {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, got, c.want, stderr.String())
		}
	}
}
