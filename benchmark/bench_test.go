package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// fingerprint renders everything a seed generates: the base load and the
// first statements of the writer.
func fingerprint(seed int64) string {
	var sb strings.Builder
	d := genDataset(seed, 50, 200)
	for _, u := range d.Users {
		u.literal(&sb)
	}
	for _, m := range d.Messages {
		m.literal(&sb)
	}
	w := newWriter(seed, 50, 200)
	for i := 0; i < 30; i++ {
		stmt, _ := upsertStatement(w.batch(20))
		sb.WriteString(stmt)
	}
	r := subSeed(seed, streamClient)
	for i := 0; i < 20; i++ {
		fmt.Fprint(&sb, r.Intn(1000), " ")
	}
	return sb.String()
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := fingerprint(7), fingerprint(7), fingerprint(8)
	if a != b {
		t.Error("equal seeds generated different inputs")
	}
	if a == c {
		t.Error("different seeds generated the same inputs")
	}
}

func TestWriterOverwritesKeepAuthorAndText(t *testing.T) {
	w := newWriter(3, 50, 1000)
	first := map[int]Message{}
	overwrites := 0
	for i := 0; i < 200; i++ {
		seen := map[int]bool{}
		for _, m := range w.batch(20) {
			if seen[m.ID] {
				t.Fatalf("key %d twice in one batch", m.ID)
			}
			seen[m.ID] = true
			if m.ID < 1000 {
				t.Fatalf("writer wrote key %d below its first key", m.ID)
			}
			if f, ok := first[m.ID]; ok {
				overwrites++
				if f.Author != m.Author || f.Text != m.Text || m.Reply < 0 {
					t.Fatalf("overwrite of %d changed author or text, or left no version mark: %+v -> %+v", m.ID, f, m)
				}
			} else {
				first[m.ID] = m
			}
		}
	}
	if share := float64(overwrites) / 4000; share < 0.15 || share > 0.25 {
		t.Errorf("overwrite share is %.2f, want about a fifth", share)
	}
	if got := len(w.Records()); got != len(first) {
		t.Errorf("writer tracks %d keys, wrote %d", got, len(first))
	}
}

func series1to(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileRuleNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		tail float64
	}{
		{39, 0, 0}, {40, 75, 30}, {99, 75, 75}, {100, 90, 90}, {200, 95, 190},
		{1000, 99, 990}, {10000, 99.9, 9990},
	} {
		l := summarize(series1to(c.n))
		if l.N != c.n || l.TailPct != c.pct || l.TailMs != c.tail {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", c.n, l.TailPct, l.TailMs, c.pct, c.tail)
		}
		if want := float64(c.n+1) / 2; l.P50ms != want {
			t.Errorf("n=%d: median %g, want %g", c.n, l.P50ms, want)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(series1to(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 is %g, want 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	if got, want := quartileSpread([]float64{13, 10, 11}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread is %g, want %g", got, want)
	}
}

func TestOpenLoopTimesFromDueTimeAndReportsLateness(t *testing.T) {
	const interval = 10 * time.Millisecond
	sched := runSchedule(time.Now(), interval, 5*interval, func(i int) {
		if i == 0 {
			time.Sleep(25 * time.Millisecond) // stalls past the next two due times
		}
	})
	if len(sched) != 5 {
		t.Fatalf("%d ops, want 5", len(sched))
	}
	for i, s := range sched {
		if s.due != time.Duration(i)*interval {
			t.Errorf("op %d due at %v", i, s.due)
		}
		if s.lag < 0 {
			t.Errorf("op %d was sent %v before it was due", i, -s.lag)
		}
		if s.latency < s.lag {
			t.Errorf("op %d: latency %v is not timed from its due time (lag %v)", i, s.latency, s.lag)
		}
	}
	if sched[0].latency < 25*time.Millisecond {
		t.Errorf("op 0 took %v, want at least its 25ms", sched[0].latency)
	}
	// Op 1 was due at 10ms but could only be sent at 25ms: it is 15ms late
	// and that wait counts in its latency.
	if sched[1].lag < 14*time.Millisecond || sched[1].latency < 14*time.Millisecond {
		t.Errorf("op 1: lag %v latency %v, want both at least 15ms", sched[1].lag, sched[1].latency)
	}
	if sched[4].lag > 5*time.Millisecond {
		t.Errorf("op 4 is still %v late after the stall has passed", sched[4].lag)
	}
}

func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	spans := []Span{
		{Name: spanClient, Req: 1, Start: 0, End: 100},
		{Name: spanHandler, Req: 1, Parent: spanClient, Start: 10, End: 90},
		{Name: spanExecute, Req: 1, Parent: spanHandler, Start: 20, End: 70},
		// A second request with two overlapping children and one that
		// sticks out of its parent.
		{Name: "p", Req: 2, Start: 0, End: 100},
		{Name: "c", Req: 2, Parent: "p", Start: 10, End: 50},
		{Name: "c", Req: 2, Parent: "p", Start: 40, End: 80},
		{Name: "c", Req: 2, Parent: "p", Start: 95, End: 120},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{spanClient: 20, spanHandler: 30, spanExecute: 50} {
		if got := self[1][name]; got != want {
			t.Errorf("%s: self time %d, want %d", name, got, want)
		}
	}
	if got := self[2]["p"]; got != 25 { // covered: 10..80 and 95..100
		t.Errorf("overlapping children: self time %d, want 25", got)
	}
	if got := durations(spans, spanExecute)[1]; got != 50 {
		t.Errorf("duration %d, want 50", got)
	}
}

func rowsJSON(t *testing.T, rows any) []json.RawMessage {
	t.Helper()
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var out []json.RawMessage
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleRejectsWrongRows(t *testing.T) {
	d := genDataset(5, 40, 400)
	o := newOracle(d)
	// Independent count for one author.
	author, n := d.Messages[0].Author, 0
	for _, m := range d.Messages {
		if m.Author == author {
			n++
		}
	}
	var rows []idTextRow
	for _, m := range d.Messages {
		if m.Author == author {
			rows = append(rows, idTextRow{m.ID, m.Text})
		}
	}
	if len(rows) != n || n == 0 {
		t.Fatal("test set-up")
	}
	op := Op{Class: classIdx, Key: author}
	if err := o.check(op, rowsJSON(t, rows), nil); err != nil {
		t.Errorf("correct rows rejected: %v", err)
	}
	if err := o.check(op, rowsJSON(t, rows[1:]), nil); err == nil {
		t.Error("a missing row was accepted")
	}
	wrong := append([]idTextRow(nil), rows...)
	wrong[0].Message += "x"
	if err := o.check(op, rowsJSON(t, wrong), nil); err == nil {
		t.Error("a wrong field was accepted")
	}
	if err := o.check(op, []json.RawMessage{json.RawMessage(`{"messageId":1}`)}, nil); err == nil {
		t.Error("a row with a missing field was accepted")
	}

	// Group counts beside a writer: between what was acknowledged before
	// the read and what was sent before it ended.
	fresh := [][]Message{{{ID: 400, Author: 7}}, {{ID: 401, Author: 7}}, {{ID: 402, Author: 7}}}
	group := func(extra int) []json.RawMessage {
		var out []groupRow
		for g, c := range o.group {
			if g == 7 {
				c += extra
			}
			if c > 0 {
				out = append(out, groupRow{g, c})
			}
		}
		return rowsJSON(t, out)
	}
	beside := Op{Class: classGroup, AckedBefore: 1, SentAfter: 2}
	for extra, ok := range map[int]bool{0: false, 1: true, 2: true, 3: false} {
		err := o.check(beside, group(extra), fresh)
		if (err == nil) != ok {
			t.Errorf("group with %d of the writer's keys: err = %v, want accepted = %v", extra, err, ok)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecAndCodeNameTheSameThings(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the spec, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: spec has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or why is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	checkDef := func(kind string, i int, got, want MetricDef) {
		if got != want {
			t.Errorf("%s %d: spec has %+v, code has %+v", kind, i, got, want)
		}
		if !nameRE.MatchString(got.Name) || seen[got.Name] {
			t.Errorf("%s %q: bad or repeated name", kind, got.Name)
		}
		seen[got.Name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(got.Unit) {
			t.Errorf("%s %q: bad unit %q", kind, got.Name, got.Unit)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("spec has %d+%d metrics, code has %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		checkDef("end_to_end", i, m.MetricDef, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if s := spec.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != maxBound {
		t.Errorf("setup_s must be declared in seconds, lower is better, with the largest bound: %+v", s)
	}
	for i, m := range spec.PerLayer {
		checkDef("per_layer", i, m, perLayer[i])
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// TestSmokeRunsEveryWorkloadEndToEnd runs the five workloads at the smoke
// scale, untraced and traced, with the oracles on.
func TestSmokeRunsEveryWorkloadEndToEnd(t *testing.T) {
	dir := t.TempDir()
	digests := map[string]map[string]string{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := Options{Seed: 42, Length: 250 * time.Millisecond, Trace: trace, Scale: smokeScale,
				WorkDir: filepath.Join(dir, "run"), TraceDir: filepath.Join(dir, "out")}
			rec, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d errors=%v", w.Name, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(o.TraceDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				if a := rec.Metrics["instrument_agreement"].Value; a < 0.5 || a > 1.5 {
					t.Errorf("%s: instrument_agreement = %g", w.Name, a)
				}
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.Name, trace, d.Name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g must be positive", w.Name, d.Name, v.Value)
				}
			}
			for _, class := range w.Classes {
				if rec.Classes[class].N == 0 {
					t.Errorf("%s trace=%v: no op of class %s completed", w.Name, trace, class)
				}
			}
			if !trace && rec.Digests != nil {
				digests[w.Name] = rec.Digests
			}
			if err := printRecord(io.Discard, rec); err != nil {
				t.Error(err)
			}
		}
	}
	mem, spill := digests["analytics_mem"], digests["analytics_spill"]
	if len(mem) != 4 || fmt.Sprint(mem) != fmt.Sprint(spill) {
		t.Errorf("analytics_spill must return analytics_mem's rows byte for byte: %v vs %v", spill, mem)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "run")); len(entries) != 0 {
		t.Errorf("%d data directories left behind", len(entries))
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale func(workload, metric string, run int) float64, tweak func(r *Record)) string {
		path := filepath.Join(dir, name)
		for run := 0; run < 5; run++ {
			for _, w := range workloads {
				r := &Record{Workload: w.Name, Seed: int64(run), Scale: "full", Correct: true, Attempted: 10,
					Metrics: map[string]Value{}, Classes: map[string]Latency{}, Counts: map[string]int64{"setup.stored_bytes": 1000 + int64(run)}}
				for _, d := range endToEnd {
					r.Metrics[d.Name] = Value{100 * scale(w.Name, d.Name, run), d.Unit}
				}
				for _, c := range w.Classes {
					r.Classes[c] = Latency{N: 100, P50ms: 10 * scale(w.Name, "p50_ms."+c, run)}
				}
				if tweak != nil {
					tweak(r)
				}
				if err := appendRecord(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	steady := func(string, string, int) float64 { return 1 }
	base := write("a.jsonl", steady, nil)
	verdicts := func(other string) (string, bool) {
		var sb strings.Builder
		regressed, err := compareFiles(&sb, "../BENCHMARK.json", base, other)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), regressed
	}

	if out, regressed := verdicts(write("same.jsonl", steady, nil)); regressed || strings.Contains(out, "unresolved") {
		t.Errorf("identical sets:\n%s", out)
	}
	slower := write("slower.jsonl", func(w, m string, _ int) float64 {
		if w == "point_serve" && m == "p50_ms.idx" {
			return 1.5
		}
		if w == "ingest" && m == "throughput_ops_s" {
			return 0.5
		}
		if w == "htap" && m == "throughput_ops_s" {
			return 1.5 // an improvement
		}
		return 1
	}, nil)
	out, regressed := verdicts(slower)
	if !regressed || strings.Count(out, "regressed") != 2 {
		t.Errorf("want exactly the two worsened rows regressed:\n%s", out)
	}
	noisy := write("noisy.jsonl", func(w, m string, run int) float64 {
		if w == "analytics_mem" && m == "p50_ms" {
			return 1 + float64(run) // far wider than the bound
		}
		return 1
	}, nil)
	if out, regressed := verdicts(noisy); regressed || strings.Count(out, "unresolved") != 1 {
		t.Errorf("want one unresolved row and none regressed:\n%s", out)
	}
	drift := write("drift.jsonl", steady, func(r *Record) {
		if r.Workload == "ingest" && r.Seed == 3 {
			r.Counts["setup.stored_bytes"]++
		}
	})
	if out, regressed := verdicts(drift); !regressed || !strings.Contains(out, "must repeat exactly") {
		t.Errorf("a count that does not repeat must regress:\n%s", out)
	}
	failed := write("failed.jsonl", steady, func(r *Record) {
		if r.Workload == "htap" && r.Seed == 0 {
			r.Failed, r.Correct = 1, false
		}
	})
	if out, regressed := verdicts(failed); !regressed || !strings.Contains(out, "error_rate") {
		t.Errorf("a failed op must regress:\n%s", out)
	}
}
