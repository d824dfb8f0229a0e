// Command asterixbench regenerates the experiment suite of DESIGN.md /
// EXPERIMENTS.md: one table per empirical claim of the paper (E1–E16; E13
// and E15 are retired).
//
// Every run emits a structured BENCH_<n>.json artifact (schema
// asterixbench/v1) alongside the prose tables — the JSON is the canonical
// record; the prose is a render of it. -compare diffs two artifacts:
// every delta outside a 1.5x band is printed, and the exit status is 2
// when an allocs/op or allocs/row measurement regressed or went missing.
//
// Usage:
//
//	asterixbench                          # run all experiments at full scale
//	asterixbench -scale small             # CI scale
//	asterixbench -only E2,E3              # a subset
//	asterixbench -out BENCH_ci.json       # explicit artifact path
//	asterixbench -compare BENCH_1.json    # run, then gate against a baseline
//	asterixbench -compare BENCH_1.json -in BENCH_2.json   # pure file diff, no run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strings"
	"time"

	"asterix/internal/benchfmt"
	"asterix/internal/experiments"
)

func main() {
	var (
		scaleName = flag.String("scale", "full", "workload scale: full or small")
		only      = flag.String("only", "", "comma-separated experiment ids (default all)")
		workDir   = flag.String("work", "", "scratch directory (default: a temp dir)")
		outPath   = flag.String("out", "", "artifact path (default: next free BENCH_<n>.json)")
		inPath    = flag.String("in", "", "compare this artifact instead of running (requires -compare)")
		comparePV = flag.String("compare", "", "baseline BENCH_*.json to diff against; an allocs/op or allocs/row regression exits 2")
	)
	flag.Parse()

	if *inPath != "" {
		// Pure comparator mode: diff two artifacts already on disk.
		if *comparePV == "" {
			log.Fatal("asterixbench: -in requires -compare")
		}
		cur, err := benchfmt.ReadFile(*inPath)
		if err != nil {
			log.Fatal(err)
		}
		gate(*comparePV, cur)
		return
	}

	scale := experiments.Full
	if *scaleName == "small" {
		scale = experiments.Small
	}
	dir := *workDir
	if dir == "" {
		d, err := os.MkdirTemp("", "asterixbench-*")
		if err != nil {
			log.Fatal(err)
		}
		//lint:ignore err-discard best-effort cleanup of the demo temp dir
		defer os.RemoveAll(d)
		dir = d
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	artifact := &benchfmt.Artifact{Env: benchfmt.NewEnvironment(*scaleName, gitCommit())}
	artifact.Env.Timestamp = time.Now().UTC().Format(time.RFC3339)
	fmt.Printf("# asterixbench  scale=%s  %s %s/%s  cpus=%d gomaxprocs=%d  commit=%s\n\n",
		artifact.Env.Scale, artifact.Env.GoVersion, artifact.Env.GOOS, artifact.Env.GOARCH,
		artifact.Env.NumCPU, artifact.Env.GOMAXPROCS, artifact.Env.Commit)

	failed := 0
	for _, exp := range experiments.All() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		rep, bx, err := experiments.RunOne(exp, scale, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", exp.ID, err)
			failed++
			continue
		}
		rep.Print(os.Stdout)
		artifact.Experiments = append(artifact.Experiments, bx)
	}

	path := *outPath
	if path == "" {
		path = nextBenchPath()
	}
	if err := artifact.WriteFile(path); err != nil {
		log.Fatalf("asterixbench: write artifact: %v", err)
	}
	// Diagnostics to stderr so `asterixbench > report.txt` captures prose only.
	fmt.Fprintf(os.Stderr, "wrote %s (%d experiments)\n", path, len(artifact.Experiments))

	if failed > 0 {
		os.Exit(1)
	}
	if *comparePV != "" {
		gate(*comparePV, artifact)
	}
}

// gate diffs cur against the baseline at basePath and prints the deltas.
// Timings only warn (shared hosts are noisy); the allocation counters are
// deterministic, so their regression or loss exits 2.
func gate(basePath string, cur *benchfmt.Artifact) {
	base, err := benchfmt.ReadFile(basePath)
	if err != nil {
		log.Fatal(err)
	}
	rep := benchfmt.Compare(base, cur)
	fmt.Printf("\n-- compare vs %s (env: %s/%d-cpu -> %s/%d-cpu)\n",
		basePath, base.Env.GOOS, base.Env.NumCPU, cur.Env.GOOS, cur.Env.NumCPU)
	rep.Format(os.Stdout)
	if rep.HardFail() {
		fmt.Fprintln(os.Stderr, "asterixbench: hard-unit regression (allocation counters are a hard gate)")
		os.Exit(2)
	}
}

// nextBenchPath returns the first free BENCH_<n>.json in the working
// directory, so successive runs accumulate a numbered perf trajectory.
func nextBenchPath() string {
	for n := 1; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

// gitCommit resolves the repo HEAD, best-effort.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
