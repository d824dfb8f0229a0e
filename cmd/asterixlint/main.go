// Command asterixlint is the repository's project-specific static
// analyzer: a stdlib-only (go/parser + go/types) multi-rule linter that
// machine-checks the concurrency and error-handling invariants this codebase
// relies on. See docs/STATIC_ANALYSIS.md for the rule catalogue and the
// //lint:ignore suppression syntax.
//
// Usage:
//
//	asterixlint [-rules r1,r2] [-v] [-stats] [packages...]
//
// Package patterns are directories or go-style "./..." trees. Exit code
// is 1 when any diagnostic is reported — a stale //lint:ignore directive
// (rule "stale-suppression") included — and 2 on load/type-check
// failure. -stats prints per-rule finding counts and wall time to
// stderr. Findings print as file:line:col: rule: msg, the form the
// GitHub Actions problem matcher in .github/asterixlint-matcher.json
// turns into inline PR annotations.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		rulesFlag = flag.String("rules", "", "comma-separated rule names to run (default: all)")
		verbose   = flag.Bool("v", false, "print packages as they are checked")
		listFlag  = flag.Bool("list", false, "list rules and exit")
		statsFlag = flag.Bool("stats", false, "print per-rule finding counts and wall time to stderr")
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
	for _, d := range diags {
		fmt.Println(d)
	}
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
		fmt.Fprintf(os.Stderr, "asterixlint: wall %s\n", time.Since(start).Round(time.Millisecond))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "asterixlint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}
