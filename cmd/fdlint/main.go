// Command fdlint runs the repo's contract-enforcement analyzer suite
// (noalloc, orderedrange, shardwrite, streamtree) over the packages
// matching its arguments — ./... by default — and exits nonzero when
// any contract is violated.
//
// Usage:
//
//	fdlint [-list] [-json] [-C dir] [packages]
//
// Diagnostics print as path:line:col: message [analyzer], sorted by
// position; -json switches to NDJSON, one object per finding with
// path, line, col, analyzer and message fields (the shape the committed
// GitHub problem matcher and other tooling consume). See README.md
// "Static analysis" for the contracts and the //fdlint: annotation
// escape hatches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analyze"
)

// Exit codes. CI distinguishes "the code broke a contract" from "the
// lint run itself broke" (bad patterns, missing module, load failure).
const (
	exitClean    = 0
	exitFindings = 1
	exitLoadFail = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the NDJSON shape of one -json output line.
type jsonFinding struct {
	Path     string `json:"path"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	asJSON := fs.Bool("json", false, "emit findings as NDJSON, one object per line")
	dir := fs.String("C", "", "run as if launched from this directory")
	if err := fs.Parse(argv); err != nil {
		return exitLoadFail
	}

	if *list {
		for _, a := range analyze.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := analyze.Run(*dir, nil, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "fdlint: %v\n", err)
		return exitLoadFail
	}
	enc := json.NewEncoder(stdout)
	for _, f := range findings {
		if *asJSON {
			enc.Encode(jsonFinding{
				Path: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
			continue
		}
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "fdlint: %d finding(s)\n", len(findings))
		return exitFindings
	}
	return exitClean
}
