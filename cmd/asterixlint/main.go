// Command asterixlint is the repository's project-specific static
// analyzer: a stdlib-only (go/parser + go/types) multi-rule linter that
// machine-checks the concurrency and resource invariants this codebase
// relies on. See docs/STATIC_ANALYSIS.md for the rule catalogue and the
// //lint:ignore suppression syntax.
//
// Usage:
//
//	asterixlint [-rules r1,r2] [-json] [-v] [-stats] [-max-wall d] [-strict-suppressions] [packages...]
//
// Package patterns are directories or go-style "./..." trees. Exit code
// is 1 when any diagnostic is reported, 2 on load/type-check failure,
// and 3 when -max-wall is set and the run exceeds it. Stale
// //lint:ignore directives (rule "stale-suppression") warn by default;
// -strict-suppressions makes them fail too.
//
// -stats prints per-rule finding counts and wall time to stderr;
// -max-wall turns slow lint into a hard failure so CI notices when the
// engine regresses.
//
// With -json, findings are emitted one JSON object per line
// ({"file","line","col","rule","msg"}) for machine consumers; the
// GitHub Actions problem matcher in .github/asterixlint-matcher.json
// consumes the default text format to produce inline PR annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// jsonDiagnostic is the -json wire shape, one object per line.
type jsonDiagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func main() {
	var (
		rulesFlag  = flag.String("rules", "", "comma-separated rule names to run (default: all)")
		verbose    = flag.Bool("v", false, "print packages as they are checked")
		listFlag   = flag.Bool("list", false, "list rules and exit")
		jsonFlag   = flag.Bool("json", false, "emit findings as JSON, one object per line")
		statsFlag  = flag.Bool("stats", false, "print per-rule finding counts and wall time to stderr")
		wallFlag   = flag.Duration("max-wall", 0, "fail (exit 3) when the run exceeds this wall time")
		strictFlag = flag.Bool("strict-suppressions", false, "fail (exit 1) on stale //lint:ignore directives instead of warning")
	)
	flag.Parse()
	start := time.Now()

	rules := AllRules()
	if *listFlag {
		for _, r := range rules {
			fmt.Printf("%-14s %s\n", r.Name, r.Doc)
		}
		return
	}
	if *rulesFlag != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*rulesFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*Rule
		for _, r := range rules {
			if want[r.Name] {
				sel = append(sel, r)
				delete(want, r.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "asterixlint: unknown rule %q\n", name)
			os.Exit(2)
		}
		rules = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "asterixlint:", err)
		os.Exit(2)
	}
	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asterixlint:", err)
		os.Exit(2)
	}

	// All packages feed one Runner so cross-package rules (lock-order)
	// see the whole acquisition graph before Finish reports on it.
	runner := NewRunner(DefaultConfig(), loader.Fset(), rules)
	// The stale audit needs every rule live: under a -rules subset a
	// directive for an unselected rule would be falsely called stale.
	runner.ReportStale = *rulesFlag == ""
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asterixlint:", err)
			os.Exit(2)
		}
		if *verbose {
			fmt.Fprintln(os.Stderr, "checking", pkg.Path)
		}
		runner.Package(pkg)
	}

	diags := runner.Finish()
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *jsonFlag {
			if err := enc.Encode(jsonDiagnostic{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Rule: d.Rule, Msg: d.Msg,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "asterixlint:", err)
				os.Exit(2)
			}
			continue
		}
		fmt.Println(d)
	}
	elapsed := time.Since(start)
	if *statsFlag {
		stats := runner.Stats()
		var names []string
		for _, r := range rules {
			names = append(names, r.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "asterixlint: rule %-14s %d finding(s)\n", name, stats[name])
		}
		fmt.Fprintf(os.Stderr, "asterixlint: wall %s\n", elapsed.Round(time.Millisecond))
	}
	if *wallFlag > 0 && elapsed > *wallFlag {
		fmt.Fprintf(os.Stderr, "asterixlint: wall time %s exceeds -max-wall %s\n",
			elapsed.Round(time.Millisecond), *wallFlag)
		os.Exit(3)
	}
	// Stale suppressions warn by default; -strict-suppressions promotes
	// them to failures. Every other finding is always a failure.
	hard, stale := 0, 0
	for _, d := range diags {
		if d.Rule == "stale-suppression" {
			stale++
		} else {
			hard++
		}
	}
	if hard > 0 || (*strictFlag && stale > 0) {
		fmt.Fprintf(os.Stderr, "asterixlint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
	if stale > 0 {
		fmt.Fprintf(os.Stderr, "asterixlint: %d stale suppression(s) (warning; -strict-suppressions to fail)\n", stale)
	}
}
