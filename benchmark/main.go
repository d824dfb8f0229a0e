// Command benchmark is the repository's benchmark: five SQL++ serving and
// ingest workloads driven through internal/server over loopback HTTP, each
// checked against an oracle computed from the generated inputs, with a
// separate traced run that times every layer from outside. README.md says
// what is measured and why; BENCHMARK.json is the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: one of BENCHMARK.json's names, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 15, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics and write the span file")
		scale    = flag.String("scale", "full", "full, or smoke for a seconds-long run at a few hundred records")
		commit   = flag.String("commit", "unknown", "commit of the checkout, recorded with the result (run.sh passes it when git knows it)")
		out      = flag.String("out", "", "append each run's full result to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	o := Options{Seed: *seed, Length: time.Duration(*seconds) * time.Second, Trace: *trace == 1, Commit: *commit,
		// Relative to the root of the checkout, where run.sh starts the
		// program; both are listed in .gitignore.
		WorkDir: ".bench_build/run", TraceDir: "benchmark/out"}
	switch *scale {
	case "full":
		o.Scale = fullScale
	case "smoke":
		o.Scale = smokeScale
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	run := workloads
	if *workload != "all" {
		w := findWorkload(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []*Workload{w}
	}
	correct := true
	for _, w := range run {
		rec, err := runWorkload(w, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		if err := printRecord(os.Stdout, rec); err != nil {
			fatal(err)
		}
		correct = correct && rec.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func appendRecord(path string, rec *Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecord prints every metric by name with its unit, and as the last
// line the one JSON object a driver reads.
func printRecord(w io.Writer, rec *Record) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v scale %s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Scale)
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d go=%s commit=%s\n", rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Commit)
	fmt.Fprintf(w, "flush policy: %s\n", rec.Env.FlushPolicy)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-38s %14.4f %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	for _, class := range sortedKeys(rec.Classes) {
		l := rec.Classes[class]
		fmt.Fprintf(w, "class  p50_ms.%-31s %14.4f ms (n=%d)\n", class, l.P50ms, l.N)
		if l.TailPct > 0 {
			fmt.Fprintf(w, "class  tail_ms.%-30s %14.4f ms (p%g, n=%d)\n", class, l.TailMs, l.TailPct, l.N)
		}
	}
	for _, name := range sortedKeys(rec.Diagnostics) {
		fmt.Fprintf(w, "diag   %-38s %14.4f %s\n", name, rec.Diagnostics[name].Value, rec.Diagnostics[name].Unit)
	}
	for _, name := range sortedKeys(rec.Counts) {
		fmt.Fprintf(w, "count  %-38s %14d\n", name, rec.Counts[name])
	}
	for _, class := range sortedKeys(rec.Digests) {
		fmt.Fprintf(w, "digest %-38s %14s\n", class, rec.Digests[class])
	}
	fmt.Fprintf(w, "error_rate %d/%d failed/attempted\n", rec.Failed, rec.Attempted)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "error  %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
