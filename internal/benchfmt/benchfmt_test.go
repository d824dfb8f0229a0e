package benchfmt

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func sampleArtifact() *Artifact {
	return &Artifact{
		Env: NewEnvironment("small", "abc1234"),
		Experiments: []Experiment{
			{
				ID:     "E1",
				Claim:  "speedup",
				WallMS: 120,
				Allocs: 1000, AllocBytes: 1 << 20,
				PeakWorkingBytes: 4 << 20,
				WaitMS:           map[string]float64{"admission": 12.5, "spill": 1.25},
				Measurements: []Measurement{
					{Name: "scan_p4", Unit: "ms", Value: 30},
					{Name: "speedup_p4", Unit: "x", Value: 3.2, Better: HigherBetter},
				},
				Table: Table{
					Header: []string{"partitions", "time"},
					Rows:   [][]string{{"1", "96.0ms"}, {"4", "30.0ms"}},
					Notes:  []string{"single-node"},
				},
			},
			{
				ID:           "E5",
				Claim:        "memory crossover",
				WallMS:       80,
				Measurements: []Measurement{{Name: "sort_spill", Unit: "ms", Value: 50}},
			},
		},
	}
}

// Round trip: emit to JSON, parse it back, compare against itself — the
// gate must pass with zero deltas.
func TestRoundTripCompareClean(t *testing.T) {
	a := sampleArtifact()
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != SchemaV1 {
		t.Fatalf("schema = %q", b.Schema)
	}
	if b.Env.GOMAXPROCS != a.Env.GOMAXPROCS || b.Env.Commit != "abc1234" || b.Env.Scale != "small" {
		t.Fatalf("env did not round-trip: %+v", b.Env)
	}
	if got := b.Find("E1").WaitMS["admission"]; got != 12.5 {
		t.Fatalf("wait_ms round-trip: %v", got)
	}
	rep := Compare(a, b)
	if !rep.OK() {
		var buf bytes.Buffer
		rep.Format(&buf)
		t.Fatalf("self-compare not OK:\n%s", buf.String())
	}
	if len(rep.Regressions)+len(rep.Improvements)+len(rep.Missing)+len(rep.Added) != 0 {
		t.Fatalf("self-compare produced deltas: %+v", rep)
	}
}

func TestReadRejectsUnknownSchema(t *testing.T) {
	_, err := Read(strings.NewReader(`{"schema":"asterixbench/v9"}`))
	if err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("err = %v", err)
	}
}

// A synthetic 2x slowdown on a lower-better metric must fail the gate at
// the default tolerance.
func TestCompareDetectsSlowdown(t *testing.T) {
	old := sampleArtifact()
	cur := sampleArtifact()
	cur.Find("E1").Measurement("scan_p4").Value *= 2
	rep := Compare(old, cur)
	if rep.OK() {
		t.Fatal("2x slowdown passed the gate")
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "scan_p4" {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	if r := rep.Regressions[0].Ratio; r != 2 {
		t.Fatalf("ratio = %v", r)
	}
}

// Exactly at the band edge passes; epsilon past it fails. Same for the
// higher-better direction.
func TestCompareToleranceBandEdges(t *testing.T) {
	const tol = tolerance
	old := sampleArtifact()

	at := sampleArtifact()
	at.Find("E1").Measurement("scan_p4").Value = 30 * (1 + tol)
	at.Find("E1").Measurement("speedup_p4").Value = 3.2 / (1 + tol)
	if rep := Compare(old, at); !rep.OK() {
		t.Fatalf("exactly-at-band failed: %+v", rep.Regressions)
	}

	over := sampleArtifact()
	over.Find("E1").Measurement("scan_p4").Value = 30*(1+tol) + 0.01
	rep := Compare(old, over)
	if rep.OK() || rep.Regressions[0].Metric != "scan_p4" {
		t.Fatalf("just-over-band passed: %+v", rep)
	}

	slower := sampleArtifact()
	slower.Find("E1").Measurement("speedup_p4").Value = 3.2/(1+tol) - 0.01
	rep = Compare(old, slower)
	if rep.OK() || rep.Regressions[0].Metric != "speedup_p4" {
		t.Fatalf("higher-better drop passed: %+v", rep)
	}
}

// Losing an experiment (or a measurement) is a regression; gaining one is
// a note.
func TestCompareMissingAndAdded(t *testing.T) {
	old := sampleArtifact()
	cur := sampleArtifact()
	cur.Experiments = cur.Experiments[:1] // drop E5
	cur.Experiments[0].Measurements = append(cur.Experiments[0].Measurements,
		Measurement{Name: "new_metric", Value: 1})
	cur.Experiments = append(cur.Experiments, Experiment{ID: "E99"})

	rep := Compare(old, cur)
	if rep.OK() {
		t.Fatal("missing experiment passed the gate")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "experiment E5" {
		t.Fatalf("missing = %v", rep.Missing)
	}
	want := map[string]bool{"measurement E1 new_metric": true, "experiment E99": true}
	if len(rep.Added) != 2 || !want[rep.Added[0]] || !want[rep.Added[1]] {
		t.Fatalf("added = %v", rep.Added)
	}

	// Added-only (no missing) must still pass.
	rep = Compare(old, sampleArtifact())
	if !rep.OK() {
		t.Fatalf("identical compare failed: %+v", rep)
	}
}

// Big improvements are surfaced but never fail the gate.
func TestCompareImprovementReported(t *testing.T) {
	old := sampleArtifact()
	cur := sampleArtifact()
	cur.Find("E1").Measurement("scan_p4").Value = 3 // 10x faster
	rep := Compare(old, cur)
	if !rep.OK() {
		t.Fatalf("improvement failed gate: %+v", rep.Regressions)
	}
	if len(rep.Improvements) != 1 || rep.Improvements[0].Metric != "scan_p4" {
		t.Fatalf("improvements = %+v", rep.Improvements)
	}
}

func TestWriteTextRendersEnvAndWaits(t *testing.T) {
	var buf bytes.Buffer
	sampleArtifact().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"# asterixbench  scale=small",
		"gomaxprocs=",
		"commit=abc1234",
		"== E1: speedup",
		"partitions",
		"note: single-node",
		"waits: admission=12.5ms spill=1.2ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// Hard units promote deterministic counters (allocs/op) to failures;
// other units only warn.
func TestCompareHardUnits(t *testing.T) {
	mk := func() *Artifact {
		a := sampleArtifact()
		a.Experiments[0].Measurements = append(a.Experiments[0].Measurements,
			Measurement{Name: "pipeline_allocs", Unit: "allocs/op", Value: 4})
		return a
	}
	clean := Compare(mk(), mk())
	if !clean.OK() || clean.HardFail() {
		t.Fatalf("identical artifacts failed: %+v", clean)
	}

	// An alloc-counter regression is hard; a timing regression is not.
	allocUp := mk()
	allocUp.Find("E1").Measurement("pipeline_allocs").Value = 40
	rep := Compare(mk(), allocUp)
	if !rep.HardFail() {
		t.Fatalf("10x alloc growth not a hard failure: %+v", rep)
	}
	if len(rep.Regressions) != 1 || !rep.Regressions[0].Hard {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}

	slow := mk()
	slow.Find("E1").Measurement("scan_p4").Value = 300
	rep = Compare(mk(), slow)
	if rep.OK() || rep.HardFail() {
		t.Fatalf("timing regression classified hard: %+v", rep)
	}

	// Losing the counter (directly or with its whole experiment) is hard.
	gone := mk()
	gone.Experiments[0].Measurements = gone.Experiments[0].Measurements[:2]
	rep = Compare(mk(), gone)
	if !rep.HardFail() || len(rep.HardMissing) != 1 {
		t.Fatalf("dropped hard counter not HardMissing: %+v", rep)
	}
	lost := mk()
	lost.Experiments = lost.Experiments[1:]
	rep = Compare(mk(), lost)
	if !rep.HardFail() {
		t.Fatalf("dropped experiment with hard counter not HardFail: %+v", rep)
	}

	// From a baseline of 0 there is no ratio, but any increase regresses.
	zero, grown := mk(), mk()
	zero.Find("E1").Measurement("pipeline_allocs").Value = 0
	grown.Find("E1").Measurement("pipeline_allocs").Value = 3
	if rep := Compare(zero, grown); !rep.HardFail() || rep.OK() {
		t.Fatalf("0 -> 3 allocs/op passed the gate: %+v", rep)
	}

	// The band of a counter is a distance, not a ratio: one more allocation
	// per row is a 1.41x growth of E14's pipeline, inside the timings'
	// 1.5x, and must still fail.
	perRow := func(v float64) *Artifact {
		a := sampleArtifact()
		a.Experiments[0].Measurements = append(a.Experiments[0].Measurements,
			Measurement{Name: "groupby_pipeline_allocs_per_row", Unit: "allocs/row", Value: v})
		return a
	}
	if rep := Compare(perRow(2.4668), perRow(3.4668)); !rep.HardFail() || len(rep.Regressions) != 1 {
		t.Fatalf("2.4668 -> 3.4668 allocs/row passed the gate: %+v", rep)
	}
	if rep := Compare(perRow(2.4668), perRow(2.4668)); !rep.OK() || rep.HardFail() {
		t.Fatalf("an unchanged allocs/row failed the gate: %+v", rep)
	}

	var buf bytes.Buffer
	Compare(mk(), allocUp).Format(&buf)
	if !strings.Contains(buf.String(), "REGRESS!") || !strings.Contains(buf.String(), "hard-unit failure") {
		t.Fatalf("hard regression not labeled:\n%s", buf.String())
	}
}
