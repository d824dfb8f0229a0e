package asterix

// One benchmark per experiment of DESIGN.md's per-experiment index
// (E1–E10). Each drives the same harness as cmd/asterixbench; run
//
//	go test -bench=. -benchmem
//
// for shapes, and `go run ./cmd/asterixbench` for the full report tables
// recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"asterix/internal/core"
	"asterix/internal/experiments"
	"asterix/internal/obs"
)

// benchScale keeps testing.B iterations meaningful without multi-minute
// runs; cmd/asterixbench uses experiments.Full.
var benchScale = experiments.Scale{
	Users: 1000, Messages: 3000, Points: 10000, Keys: 10000,
	LogLines: 1000, SortRows: 20000, Queries: 1,
}

func benchExperiment(b *testing.B, run func(experiments.Scale, string) (*experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(benchScale, b.TempDir()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1ScaleOut — §III scale-out claim / [13].
func BenchmarkE1ScaleOut(b *testing.B) { benchExperiment(b, experiments.E1ScaleOut) }

// BenchmarkE2Spatial — §V-B LSM spatial-index study [23].
func BenchmarkE2Spatial(b *testing.B) { benchExperiment(b, experiments.E2Spatial) }

// BenchmarkE3BtreeVsHash — §V-C B+tree vs linear hashing (Graefe).
func BenchmarkE3BtreeVsHash(b *testing.B) { benchExperiment(b, experiments.E3BtreeVsHash) }

// BenchmarkE4MRvsHyracks — §IV MapReduce-vs-parallel-DB judgment.
func BenchmarkE4MRvsHyracks(b *testing.B) { benchExperiment(b, experiments.E4MRvsHyracks) }

// BenchmarkE5MemoryBudget — Fig. 2 budgeted-operator spilling.
func BenchmarkE5MemoryBudget(b *testing.B) { benchExperiment(b, experiments.E5MemoryBudget) }

// BenchmarkE6HTAPIsolation — §VI / Fig. 7 shadow-ingest isolation.
func BenchmarkE6HTAPIsolation(b *testing.B) { benchExperiment(b, experiments.E6HTAPIsolation) }

// BenchmarkE7AqlVsSqlpp — §IV-A peer-language claim.
func BenchmarkE7AqlVsSqlpp(b *testing.B) { benchExperiment(b, experiments.E7AqlVsSqlpp) }

// BenchmarkE8MergePolicy — LSM merge-policy ablation.
func BenchmarkE8MergePolicy(b *testing.B) { benchExperiment(b, experiments.E8MergePolicy) }

// BenchmarkE9Figure3 — the paper's own Figure 3(c) query end-to-end.
func BenchmarkE9Figure3(b *testing.B) { benchExperiment(b, experiments.E9Figure3) }

// BenchmarkE10Recovery — WAL redo recovery (§III feature 9).
func BenchmarkE10Recovery(b *testing.B) { benchExperiment(b, experiments.E10Recovery) }

// BenchmarkE11PKSortAblation — the pk-sort-before-fetch trick of [26].
func BenchmarkE11PKSortAblation(b *testing.B) { benchExperiment(b, experiments.E11PKSortAblation) }

// BenchmarkE12Compression — the §VII storage-compression feature.
func BenchmarkE12Compression(b *testing.B) { benchExperiment(b, experiments.E12Compression) }

// BenchmarkIngestStall is the write path of the repository benchmark's
// ingest workload inside one process: one writer sending 20-record UPSERT
// statements (a fifth of the records overwrite a recent key) to a dataset
// with a B-tree, an R-tree and a keyword index and 1 MiB memory
// components. It reports records/s, stall-ns/record — how long the writer
// waited for storage, from lsm_writer_stall_seconds — and
// maint-ns/record, the flush and merge time of
// lsm_{flush,merge}_duration_seconds. On a tree whose writer flushes and
// merges itself (no stall histogram), maint-ns/record is the stall.
func BenchmarkIngestStall(b *testing.B) {
	const statements, batch = 1500, 20
	r := rand.New(rand.NewSource(26))
	words := strings.Fields("the quick brown fox jumps over a lazy dog while seven wizards box with vexed daft zebras")
	var stmts []string
	keys := 0
	for s := 0; s < statements; s++ {
		var sb strings.Builder
		sb.WriteString("UPSERT INTO Messages ([")
		for i, used := 0, map[int]bool{}; i < batch; i++ {
			id := keys
			if back := 1 + int(r.ExpFloat64()*1000); keys > back && r.Intn(5) == 0 && !used[keys-back] {
				id = keys - back
			} else {
				keys++
			}
			used[id] = true
			text := make([]string, 14+r.Intn(6))
			for j := range text {
				text[j] = words[r.Intn(len(words))]
			}
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"id":%d,"author":%d,"text":"%s"`, id, r.Intn(20000), strings.Join(text, " "))
			if id%2 == 0 {
				fmt.Fprintf(&sb, `,"loc":point(%.4f,%.4f)`, r.Float64()*360-180, r.Float64()*180-90)
			}
			sb.WriteByte('}')
		}
		sb.WriteString("]);")
		stmts = append(stmts, sb.String())
	}
	sum := func(snap map[string]interface{}, name string) float64 {
		h, _ := snap[name].(obs.HistogramSnapshot)
		return h.Sum
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		eng, err := core.Open(core.Config{DataDir: b.TempDir(), Partitions: 2, Nodes: 2,
			MemComponentBudget: 1 << 20, NoSyncCommits: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Execute(ctx, `
			CREATE TYPE MessageType AS {id: int, author: int, text: string, loc: point?};
			CREATE DATASET Messages(MessageType) PRIMARY KEY id;
			CREATE INDEX byAuthor ON Messages(author);
			CREATE INDEX byLoc ON Messages(loc) TYPE RTREE;
			CREATE INDEX byText ON Messages(text) TYPE KEYWORD;`); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for _, s := range stmts {
			if _, err := eng.Execute(ctx, s); err != nil {
				b.Fatal(err)
			}
		}
		wall := time.Since(start)
		snap := eng.Metrics().Snapshot()
		records := float64(statements * batch)
		b.ReportMetric(records/wall.Seconds(), "records/s")
		b.ReportMetric(sum(snap, "lsm_writer_stall_seconds")*1e9/records, "stall-ns/record")
		b.ReportMetric((sum(snap, "lsm_flush_duration_seconds")+sum(snap, "lsm_merge_duration_seconds"))*1e9/records, "maint-ns/record")
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
