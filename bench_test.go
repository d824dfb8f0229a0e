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
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/algebricks"
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

// measured runs fn and reports what it cost per unit of work as
// <phase>-ns/<unit>, <phase>-B/<unit> and <phase>-allocs/<unit>.
func measured(b *testing.B, phase, unit string, fn func() (units int)) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := float64(fn())
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(wall.Nanoseconds())/n, phase+"-ns/"+unit)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, phase+"-B/"+unit)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, phase+"-allocs/"+unit)
}

// BenchmarkSecondaryMaintenance is what one record costs a dataset with one
// secondary index, of each kind the repository benchmark's ingest workload
// carries: a fresh insert, an overwrite that keeps the indexed field and one
// that changes it — through Engine.UpsertValue, log and primary index
// included, with memory components large enough that nothing flushes.
func BenchmarkSecondaryMaintenance(b *testing.B) {
	const n = 20000
	r := rand.New(rand.NewSource(28))
	words := strings.Fields("the quick brown fox jumps over a lazy dog while seven wizards box with vexed daft zebras")
	rec := func(id int, pad string) *adm.Object {
		text := make([]string, 14+r.Intn(6))
		for j := range text {
			text[j] = words[r.Intn(len(words))]
		}
		return adm.NewObject(
			adm.Field{Name: "id", Value: adm.Int64(id)},
			adm.Field{Name: "author", Value: adm.Int64(r.Intn(20000))},
			adm.Field{Name: "text", Value: adm.String(strings.Join(text, " "))},
			adm.Field{Name: "loc", Value: adm.Point{X: r.Float64()*360 - 180, Y: r.Float64()*180 - 90}},
			adm.Field{Name: "pad", Value: adm.String(pad)},
		)
	}
	var fresh, keep, change []*adm.Object
	for id := 0; id < n; id++ {
		fresh = append(fresh, rec(id, "a"))
		k := adm.NewObject(fresh[id].Fields()...)
		k.Set("pad", adm.String("b"))
		keep, change = append(keep, k), append(change, rec(id, "c"))
	}
	for _, ix := range []string{"ix ON M(author)", "ix ON M(loc) TYPE RTREE", "ix ON M(text) TYPE KEYWORD"} {
		b.Run(strings.Fields(ix + " TYPE BTREE")[4], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := core.Open(core.Config{DataDir: b.TempDir(), Partitions: 2, Nodes: 2,
					MemComponentBudget: 256 << 20, NoSyncCommits: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Execute(context.Background(), `
					CREATE TYPE MT AS {id: int, author: int, text: string, loc: point, pad: string};
					CREATE DATASET M(MT) PRIMARY KEY id;
					CREATE INDEX `+ix+`;`); err != nil {
					b.Fatal(err)
				}
				for _, phase := range []struct {
					name string
					recs []*adm.Object
				}{{"insert", fresh}, {"keep", keep}, {"change", change}} {
					measured(b, phase.name, "record", func() int {
						for _, rec := range phase.recs {
							if err := eng.UpsertValue("M", rec); err != nil {
								b.Fatal(err)
							}
						}
						return n
					})
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexSearch is what one candidate costs the three searches the
// repository benchmark's lookups make — an equality (10 entries), a range
// over 10 keys (100) and a keyword — and a spatial search of every spatial
// index kind over E2's points (uniform over the world) with E2-shaped boxes
// at its three selectivities, on the index itself, primary fetch included,
// over flushed components; and what one search allocates.
func BenchmarkIndexSearch(b *testing.B) {
	const n, authors, points = 50000, 5000, 20000
	eng, err := core.Open(core.Config{DataDir: b.TempDir(), Partitions: 2, Nodes: 2, NoSyncCommits: true})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	kinds := []string{"RTREE", "ZORDER", "HILBERT", "GRID"}
	ddl := `
		CREATE TYPE MT AS {id: int, author: int, text: string};
		CREATE DATASET M(MT) PRIMARY KEY id;
		CREATE INDEX byAuthor ON M(author);
		CREATE INDEX byText ON M(text) TYPE KEYWORD;
		CREATE TYPE PointType AS {id: int, loc: point, payload: string};
		CREATE DATASET Points(PointType) PRIMARY KEY id;`
	for _, kind := range kinds {
		ddl += fmt.Sprintf("CREATE INDEX by%s ON Points(loc) TYPE %s;", kind, kind)
	}
	if _, err := eng.Execute(context.Background(), ddl); err != nil {
		b.Fatal(err)
	}
	for id := 0; id < n; id++ {
		if err := eng.UpsertValue("M", adm.NewObject(
			adm.Field{Name: "id", Value: adm.Int64(id)},
			adm.Field{Name: "author", Value: adm.Int64(id % authors)},
			adm.Field{Name: "text", Value: adm.String(fmt.Sprintf("message w%d of author a%d", id%500, id%authors))},
		)); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(2))
	for id := 0; id < points; id++ {
		if err := eng.UpsertValue("Points", experiments.GenPoint(id, r)); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	byAuthor, _ := eng.SecondaryIndexHandle("M", "byAuthor")
	byText, _ := eng.SecondaryIndexHandle("M", "byText")
	count := 0
	emit := func(algebricks.Record) error { count++; return nil }
	run := func(b *testing.B, searches int, search func(part, i int) error) {
		for i := 0; i < b.N; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			measured(b, "search", "candidate", func() int {
				count = 0
				for s := 0; s < searches; s++ {
					for part := 0; part < 2; part++ {
						if err := search(part, s); err != nil {
							b.Fatal(err)
						}
					}
				}
				return count
			})
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(2*searches), "allocs/search")
		}
	}
	b.Run("equality", func(b *testing.B) {
		run(b, 2000, func(part, i int) error {
			k := adm.Int64(i * 7 % authors)
			return byAuthor.SearchRange(part, k, k, true, true, emit)
		})
	})
	b.Run("range10", func(b *testing.B) {
		run(b, 2000, func(part, i int) error {
			k := i * 7 % (authors - 10)
			return byAuthor.SearchRange(part, adm.Int64(k), adm.Int64(k+10), true, false, emit)
		})
	})
	b.Run("keyword", func(b *testing.B) {
		run(b, 2000, func(part, i int) error { return byText.SearchKeyword(part, fmt.Sprintf("w%d", i%500), emit) })
	})
	for _, sel := range []float64{0.0001, 0.001, 0.01} {
		// 100 boxes of E2's shape: a sel share of the world, placed at random.
		qr := rand.New(rand.NewSource(7))
		boxes := make([]adm.Rectangle, 100)
		for i := range boxes {
			w, h := 360*math.Sqrt(sel), 180*math.Sqrt(sel)
			x, y := -180+qr.Float64()*(360-w), -90+qr.Float64()*(180-h)
			boxes[i] = adm.Rectangle{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		}
		for _, kind := range kinds {
			si, _ := eng.SecondaryIndexHandle("Points", "by"+kind)
			b.Run(fmt.Sprintf("%s-%g", kind, sel), func(b *testing.B) {
				run(b, 500, func(part, i int) error { return si.SearchSpatial(part, boxes[i%len(boxes)], emit) })
			})
		}
	}
}
