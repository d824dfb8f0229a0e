package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		MetricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func readSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readRecords(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, &r)
	}
	return recs, sc.Err()
}

// series is the values of one metric on one workload over a file's
// untraced runs.
func series(recs []*Record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		} else if class, ok := strings.CutPrefix(metric, "p50_ms."); ok {
			if l, ok := r.Classes[class]; ok {
				out = append(out, l.P50ms)
			}
		}
	}
	return out
}

// compareFiles applies each end-to-end metric's bound to the medians of two
// result files, a before b, one row per workload and metric, and the
// per-class medians with the bound of p50_ms. A metric whose runs spread
// wider than its bound on either side is unresolved, not ok. Runs of one
// seed must repeat their exact counts, no run may have failed an op, and
// analytics_spill must return what analytics_mem returns. It reports
// whether any row regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	row := func(workload, metric, verdict, detail string) {
		fmt.Fprintf(w, "%-16s %-28s %-10s %s\n", workload, metric, verdict, detail)
		regressed = regressed || verdict == "regressed"
	}
	fmt.Fprintf(w, "%-16s %-28s %-10s %s\n", "workload", "metric", "verdict", "a -> b (worse by; spread a, b; bound)")
	for _, wl := range spec.Workloads {
		type check struct {
			name, better string
			bound        float64
		}
		var checks []check
		for _, m := range spec.EndToEnd {
			checks = append(checks, check{m.Name, m.Better, m.Bound})
			if m.Name == "p50_ms" {
				if wk := findWorkload(wl.Name); wk != nil {
					for _, class := range wk.Classes {
						checks = append(checks, check{"p50_ms." + class, m.Better, m.Bound})
					}
				}
			}
		}
		for _, c := range checks {
			va, vb := series(a, wl.Name, c.name), series(b, wl.Name, c.name)
			if len(va) == 0 || len(vb) == 0 {
				row(wl.Name, c.name, "unresolved", "no untraced run on one side")
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if c.better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case sa > c.bound || sb > c.bound:
				verdict = "unresolved"
			case worse > c.bound:
				verdict = "regressed"
			}
			row(wl.Name, c.name, verdict, fmt.Sprintf("%.4f -> %.4f (%+.1f%%; %.1f%%, %.1f%%; %.0f%%)",
				ma, mb, worse*100, sa*100, sb*100, c.bound*100))
		}
	}
	for _, set := range [][]*Record{a, b} {
		for _, r := range set {
			if r.Failed > 0 || !r.Correct {
				row(r.Workload, "error_rate", "regressed", fmt.Sprintf("seed %d: %d/%d failed", r.Seed, r.Failed, r.Attempted))
			}
		}
	}

	// Exact repeats: all runs of one workload, seed, scale and mode must
	// agree on every count they share, and analytics_spill's digests must
	// equal analytics_mem's.
	type key struct {
		workload, scale string
		seed            int64
		trace           bool
	}
	counts := map[key]map[string]int64{}
	digests := map[key]map[string]string{}
	for _, set := range [][]*Record{a, b} {
		for _, r := range set {
			k := key{r.Workload, r.Scale, r.Seed, r.Trace}
			if counts[k] == nil {
				counts[k] = map[string]int64{}
			}
			for name, v := range r.Counts {
				if prev, ok := counts[k][name]; ok && prev != v {
					row(r.Workload, name, "regressed", fmt.Sprintf("seed %d: %d and %d in runs that must repeat exactly", r.Seed, prev, v))
				}
				counts[k][name] = v
			}
			k.workload, k.trace = strings.TrimSuffix(strings.TrimSuffix(k.workload, "_mem"), "_spill"), false
			if digests[k] == nil {
				digests[k] = map[string]string{}
			}
			for class, d := range r.Digests {
				if prev, ok := digests[k][class]; ok && prev != d {
					row(r.Workload, "digest."+class, "regressed", fmt.Sprintf("seed %d: results differ between runs that must return the same rows", r.Seed))
				}
				digests[k][class] = d
			}
		}
	}

	// Diagnostic: how much slower the reader's classes are beside the writer.
	for i, set := range [][]*Record{a, b} {
		for _, class := range []string{classScan, classGroup} {
			quiet, beside := series(set, "analytics_mem", "p50_ms."+class), series(set, "htap", "p50_ms."+class)
			if len(quiet) > 0 && len(beside) > 0 {
				fmt.Fprintf(w, "%-16s %-28s %-10s %.3f in %s\n", "htap", "isolation_ratio."+class, "diagnostic",
					median(beside)/median(quiet), []string{"a", "b"}[i])
			}
		}
	}
	return regressed, nil
}
