package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"asterix/internal/adm"
	"asterix/internal/benchfmt"
	"asterix/internal/btree"
	"asterix/internal/core"
	"asterix/internal/hyracks"
	"asterix/internal/linearhash"
	"asterix/internal/lsm"
	"asterix/internal/mapreduce"
	"asterix/internal/mem"
	"asterix/internal/obs"
	"asterix/internal/storage"
)

// Scale sets workload sizes; Small keeps tests/benches fast, Full is the
// asterixbench default.
type Scale struct {
	Users    int
	Messages int
	Points   int
	Keys     int
	LogLines int
	SortRows int
	Queries  int
}

// Small is the CI-friendly scale.
var Small = Scale{Users: 2000, Messages: 6000, Points: 20000, Keys: 20000,
	LogLines: 2000, SortRows: 30000, Queries: 3}

// Full is the report-quality scale.
var Full = Scale{Users: 20000, Messages: 60000, Points: 200000, Keys: 200000,
	LogLines: 20000, SortRows: 500000, Queries: 5}

// Report is one experiment's result: the prose table plus the typed
// measurements and wait attribution the BENCH_<n>.json artifact is built
// from.
type Report struct {
	ID     string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string

	// Measurements are the experiment's named metrics — what the
	// regression comparator diffs (the prose rows are for humans).
	Measurements []benchfmt.Measurement
	// PeakWorking is the high-water mark of granted working memory the
	// experiment observed across its jobs (0 when nothing drew from the
	// governor's working pool).
	PeakWorking int64

	// span is the experiment's root trace span; queries run under
	// Ctx() attribute admission/lock/spill/flush/merge/exchange waits
	// to it.
	span *obs.Span
}

// Ctx returns a context carrying the experiment's root span, so engine
// calls made with it feed the artifact's wait-time rollup.
func (r *Report) Ctx() context.Context {
	if r.span == nil {
		r.span = obs.NewSpan(r.ID)
	}
	return obs.ContextWithSpan(context.Background(), r.span)
}

// Waits returns the experiment's accumulated wait attribution
// (WaitRollup is nil-safe: no Ctx call means an all-zero profile).
func (r *Report) Waits() obs.WaitProfile {
	return r.span.WaitRollup()
}

// Measure records a lower-is-better metric (times, bytes, I/O counts).
func (r *Report) Measure(name, unit string, value float64) {
	r.Measurements = append(r.Measurements, benchfmt.Measurement{
		Name: name, Unit: unit, Value: value, Better: benchfmt.LowerBetter,
	})
}

// MeasureHigher records a higher-is-better metric (speedups, rates).
func (r *Report) MeasureHigher(name, unit string, value float64) {
	r.Measurements = append(r.Measurements, benchfmt.Measurement{
		Name: name, Unit: unit, Value: value, Better: benchfmt.HigherBetter,
	})
}

// notePeak raises the experiment's working-memory high-water mark.
func (r *Report) notePeak(bytes int64) {
	if bytes > r.PeakWorking {
		r.PeakWorking = bytes
	}
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", r.ID, r.Claim)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(r.Header)
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// ms renders a duration for a table: to 0.1 ms from 10 ms up, and in whole
// microseconds below, where tenths of a millisecond would print the small
// scale's index searches all as 0.0ms.
func ms(d time.Duration) string {
	if d < 10*time.Millisecond {
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// removeScratch deletes an experiment's scratch directory.
func removeScratch(dir string) {
	//lint:ignore err-discard best-effort cleanup: a directory left behind under the work dir costs disk space, never a measurement
	os.RemoveAll(dir)
}

func fixedClock() func() time.Time {
	t, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	return func() time.Time { return t }
}

// newEngine builds an engine under dir. Commit fsyncs are off: the
// experiments measure engine behavior, not the host's fsync latency
// (group commit would amortize it in a production configuration).
func newEngine(dir string, partitions int, policy lsm.MergePolicy, memBudget int) (*core.Engine, error) {
	return core.Open(core.Config{
		DataDir:            dir,
		Partitions:         partitions,
		Nodes:              partitions,
		MergePolicy:        policy,
		MemComponentBudget: memBudget,
		NoSyncCommits:      true,
		Now:                fixedClock(),
	})
}

func ingestGleambook(e *core.Engine, users, messages int, seed int64) error {
	if _, err := e.Execute(context.Background(), gleambookDDL); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < users; i++ {
		if err := e.UpsertValue("GleambookUsers", GenUser(i, users, r)); err != nil {
			return err
		}
	}
	for i := 0; i < messages; i++ {
		if err := e.UpsertValue("GleambookMessages", GenMessage(i, users, r)); err != nil {
			return err
		}
	}
	return nil
}

// E1ScaleOut regenerates the scale-out claim (§III / [13]): the same
// workload across 1..P partitions should speed up with P.
func E1ScaleOut(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E1",
		Claim:  "storage and query scale with hash partitioning (shape: speedup grows with partitions)",
		Header: []string{"partitions", "gomaxprocs", "ingest", "query(avg)", "speedup"},
		Notes: []string{fmt.Sprintf(
			"host has %d CPU core(s) visible to Go — wall-clock speedup is bounded by that; "+
				"the structural property (goroutine-per-partition tasks, hash exchanges) is exercised regardless",
			runtime.GOMAXPROCS(0))},
	}
	query := `
		SELECT u.id AS id, COUNT(m) AS cnt
		FROM GleambookUsers u JOIN GleambookMessages m ON m.authorId = u.id
		GROUP BY u.id AS id;`
	var base time.Duration
	for _, p := range []int{1, 2, 4} {
		dir := filepath.Join(workDir, fmt.Sprintf("e1-p%d", p))
		e, err := newEngine(dir, p, nil, 0)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := ingestGleambook(e, scale.Users, scale.Messages, 1); err != nil {
			e.Close()
			return nil, err
		}
		ingest := time.Since(t0)
		var total time.Duration
		for q := 0; q < scale.Queries; q++ {
			t1 := time.Now()
			res, err := e.Query(rep.Ctx(), query)
			if err != nil {
				e.Close()
				return nil, err
			}
			total += time.Since(t1)
			rep.notePeak(res.PeakWorkingMem)
		}
		avg := total / time.Duration(scale.Queries)
		if p == 1 {
			base = avg
		}
		speedup := float64(base) / float64(avg)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(p), fmt.Sprint(runtime.GOMAXPROCS(0)), ms(ingest), ms(avg),
			fmt.Sprintf("%.2fx", speedup),
		})
		rep.Measure(fmt.Sprintf("ingest_p%d", p), "ms", float64(ingest.Microseconds())/1000)
		rep.Measure(fmt.Sprintf("query_p%d", p), "ms", float64(avg.Microseconds())/1000)
		if p > 1 {
			rep.MeasureHigher(fmt.Sprintf("speedup_p%d", p), "x", speedup)
		}
		e.Close()
		removeScratch(dir)
	}
	return rep, nil
}

// E2Spatial regenerates the Section V-B study [23]: different spatial
// indexes differ in index-portion time, but end-to-end query times land
// close together because the object fetch dominates.
func E2Spatial(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E2",
		Claim:  "LSM spatial index choice matters for index time but washes out end-to-end (±10% band)",
		Header: []string{"index", "selectivity", "candidates", "index-only", "end-to-end", "rows"},
		Notes: []string{
			"candidate counts > rows show curve/grid false positives filtered after the (dominant) fetch",
			fmt.Sprintf("index-only and end-to-end are each the median of %d timings of the query", e2Runs),
		},
	}
	dir := filepath.Join(workDir, "e2")
	defer removeScratch(dir)
	e, err := newEngine(dir, 2, nil, 0)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ctx := rep.Ctx()
	if _, err := e.Execute(ctx, `
		CREATE TYPE PointType AS {id: int, loc: point, payload: string};
		CREATE DATASET Points(PointType) PRIMARY KEY id;`); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < scale.Points; i++ {
		if err := e.UpsertValue("Points", GenPoint(i, r)); err != nil {
			return nil, err
		}
	}
	kinds := []string{"RTREE", "ZORDER", "HILBERT", "GRID"}
	sels := []float64{0.0001, 0.001, 0.01}
	// One query rectangle per selectivity, shared by every index kind so
	// the kinds answer identical queries.
	qr := rand.New(rand.NewSource(7))
	rects := make(map[float64]adm.Rectangle, len(sels))
	for _, sel := range sels {
		w := 360 * math.Sqrt(sel)
		h := 180 * math.Sqrt(sel)
		x := -180 + qr.Float64()*(360-w)
		y := -90 + qr.Float64()*(180-h)
		rects[sel] = adm.Rectangle{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	for _, kind := range kinds {
		if _, err := e.Execute(ctx, fmt.Sprintf(
			`CREATE INDEX spIdx ON Points(loc) TYPE %s;`, kind)); err != nil {
			return nil, err
		}
		si, ok := e.SecondaryIndexHandle("Points", "spIdx")
		if !ok {
			return nil, fmt.Errorf("index handle missing")
		}
		for _, sel := range sels {
			rect := rects[sel]
			cands := 0
			idxOnly, err := e2Median(func() error {
				cands = 0
				for p := 0; p < 2; p++ {
					n, err := si.SearchSpatialCandidates(p, rect)
					if err != nil {
						return err
					}
					cands += n
				}
				return nil
			})
			if err != nil {
				return nil, err
			}

			q := fmt.Sprintf(`SELECT VALUE p.id FROM Points p
				WHERE spatial_intersect(p.loc, create_rectangle(%g, %g, %g, %g));`,
				rect.MinX, rect.MinY, rect.MaxX, rect.MaxY)
			rows := 0
			endToEnd, err := e2Median(func() error {
				res, err := e.Query(ctx, q)
				if err == nil {
					rows = len(res.Rows)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				kind, fmt.Sprintf("%.4f", sel), fmt.Sprint(cands),
				ms(idxOnly), ms(endToEnd), fmt.Sprint(rows),
			})
			if sel == 0.01 {
				rep.Measure("idx_only_"+strings.ToLower(kind), "ms", float64(idxOnly.Microseconds())/1000)
				rep.Measure("end_to_end_"+strings.ToLower(kind), "ms", float64(endToEnd.Microseconds())/1000)
			}
		}
		if _, err := e.Execute(ctx, `DROP INDEX Points.spIdx;`); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// e2Runs is how many times E2 times each query: one timing of a query of a
// millisecond or less spreads too widely to rank index kinds.
const e2Runs = 31

// e2Median runs f e2Runs times and returns the median of its wall times.
func e2Median(f func() error) (time.Duration, error) {
	ts := make([]time.Duration, e2Runs)
	for i := range ts {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t0)
	}
	slices.Sort(ts)
	return ts[e2Runs/2], nil
}

// E3BtreeVsHash regenerates the Section V-C lesson (Graefe): point-lookup
// I/O converges under a modest buffer cache, while the B+tree has a
// sorted bulk load that linear hashing lacks.
func E3BtreeVsHash(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E3",
		Claim:  "B+tree vs linear hashing: same practical lookup I/O; only the B+tree bulk-loads",
		Header: []string{"structure", "load-mode", "load-time", "lookup(avg I/O)", "lookup-time"},
	}
	dir := filepath.Join(workDir, "e3")
	defer removeScratch(dir)
	fm, err := storage.NewFileManager(dir, 4096)
	if err != nil {
		return nil, err
	}
	//lint:ignore err-discard benchmark scratch teardown is best-effort
	defer fm.Close()
	const cachePages = 256 // a modest memory allocation
	n := scale.Keys

	key := func(i int) []byte {
		return []byte(fmt.Sprintf("key%012d", i))
	}
	val := func(i int) []byte {
		return []byte(fmt.Sprintf("value-%d-%032d", i, i))
	}

	// B+tree, sorted bulk load.
	bcB := storage.NewBufferCache(fm, cachePages)
	fileB, err := fm.Open("btree")
	if err != nil {
		return nil, err
	}
	bt, err := btree.Open(bcB, fileB)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	i := 0
	err = bt.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k, v := key(i), val(i)
		i++
		return k, v, true
	})
	if err != nil {
		return nil, err
	}
	btLoad := time.Since(t0)

	// Linear hashing: record-at-a-time inserts (no bulk load exists).
	bcH := storage.NewBufferCache(fm, cachePages)
	fileH, err := fm.Open("lhash")
	if err != nil {
		return nil, err
	}
	lh, err := linearhash.Open(bcH, fileH)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if err := lh.Insert(key(i), val(i)); err != nil {
			return nil, err
		}
	}
	lhLoad := time.Since(t0)

	// Random lookups under the modest cache.
	lookups := 5000
	r := rand.New(rand.NewSource(3))
	probes := make([]int, lookups)
	for i := range probes {
		probes[i] = r.Intn(n)
	}
	bcB.ResetStats()
	t0 = time.Now()
	for _, p := range probes {
		if _, ok, err := bt.Search(key(p)); err != nil || !ok {
			return nil, fmt.Errorf("btree lookup failed: %v %v", ok, err)
		}
	}
	btTime := time.Since(t0)
	btIO := float64(bcB.Stats().Reads) / float64(lookups)

	bcH.ResetStats()
	t0 = time.Now()
	for _, p := range probes {
		if _, ok, err := lh.Search(key(p)); err != nil || !ok {
			return nil, fmt.Errorf("hash lookup failed: %v %v", ok, err)
		}
	}
	lhTime := time.Since(t0)
	lhIO := float64(bcH.Stats().Reads) / float64(lookups)

	rep.Rows = append(rep.Rows,
		[]string{"B+tree", "sorted bulk load", ms(btLoad), fmt.Sprintf("%.2f", btIO), ms(btTime)},
		[]string{"linear-hash", "per-record insert", ms(lhLoad), fmt.Sprintf("%.2f", lhIO), ms(lhTime)},
	)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("load ratio (hash/btree): %.1fx — the missing-bulk-load cost", float64(lhLoad)/float64(btLoad)))
	rep.Measure("btree_bulk_load", "ms", float64(btLoad.Microseconds())/1000)
	rep.Measure("lhash_load", "ms", float64(lhLoad.Microseconds())/1000)
	rep.Measure("btree_lookup_io", "reads/lookup", btIO)
	rep.Measure("lhash_lookup_io", "reads/lookup", lhIO)
	return rep, nil
}

// E4MRvsHyracks regenerates the Section IV judgment: the same
// join+aggregate runs as a two-stage MapReduce chain (materialized
// shuffle, phase barriers) and as a pipelined parallel query.
func E4MRvsHyracks(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E4",
		Claim:  "MapReduce's materialize-and-barrier model loses to pipelined parallel query execution",
		Header: []string{"engine", "time", "shuffle-bytes", "result-rows"},
	}
	dir := filepath.Join(workDir, "e4")
	defer removeScratch(dir)
	e, err := newEngine(filepath.Join(dir, "engine"), 2, nil, 0)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := ingestGleambook(e, scale.Users, scale.Messages, 4); err != nil {
		return nil, err
	}

	// SQL++ side: per-author message counts joined with user names.
	query := `
		SELECT u.name AS name, COUNT(m) AS cnt
		FROM GleambookUsers u JOIN GleambookMessages m ON m.authorId = u.id
		GROUP BY u.name AS name;`
	t0 := time.Now()
	res, err := e.Query(rep.Ctx(), query)
	if err != nil {
		return nil, err
	}
	hyracksTime := time.Since(t0)
	rep.notePeak(res.PeakWorkingMem)
	rep.Rows = append(rep.Rows, []string{
		"hyracks (SQL++)", ms(hyracksTime), "0", fmt.Sprint(len(res.Rows)),
	})

	// MapReduce side over the same data (read from the engine's own
	// partitions, like an MR job scanning the cluster's files).
	users, _ := e.Dataset("GleambookUsers")
	msgs, _ := e.Dataset("GleambookMessages")
	read := func(d interface {
		Partitions() int
		ScanPartition(int, func(adm.Value) error) error
	}) ([]adm.Value, error) {
		var out []adm.Value
		for p := 0; p < d.Partitions(); p++ {
			if err := d.ScanPartition(p, func(rec adm.Value) error {
				out = append(out, rec)
				return nil
			}); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	t0 = time.Now()
	uRecs, err := read(users)
	if err != nil {
		return nil, err
	}
	mRecs, err := read(msgs)
	if err != nil {
		return nil, err
	}
	tagged := make([]adm.Value, 0, len(uRecs)+len(mRecs))
	for _, u := range uRecs {
		o := adm.NewObject(u.(*adm.Object).Fields()...)
		o.Set("$tag", adm.String("u"))
		tagged = append(tagged, o)
	}
	for _, m := range mRecs {
		o := adm.NewObject(m.(*adm.Object).Fields()...)
		o.Set("$tag", adm.String("m"))
		tagged = append(tagged, o)
	}
	joinStage := &mapreduce.Job{
		Name: "join", NumMaps: 2, NumReduces: 2, TmpDir: dir,
		Input: func(task int, emit func(adm.Value) error) error {
			for i, rec := range tagged {
				if i%2 == task {
					if err := emit(rec); err != nil {
						return err
					}
				}
			}
			return nil
		},
		Map: func(rec adm.Value, emit func(k, v adm.Value) error) error {
			o := rec.(*adm.Object)
			if o.Get("$tag").String() == `"u"` {
				return emit(o.Get("id"), rec)
			}
			return emit(o.Get("authorId"), rec)
		},
		Reduce: func(key adm.Value, values []adm.Value, emit func(adm.Value) error) error {
			var name adm.Value = adm.Null
			cnt := int64(0)
			for _, v := range values {
				o := v.(*adm.Object)
				if o.Get("$tag").String() == `"u"` {
					name = o.Get("name")
				} else {
					cnt++
				}
			}
			if name.Kind() <= adm.KindNull || cnt == 0 {
				return nil
			}
			return emit(adm.NewObject(
				adm.Field{Name: "name", Value: name},
				adm.Field{Name: "cnt", Value: adm.Int64(cnt)},
			))
		},
	}
	mrOut, stats, err := mapreduce.Run(joinStage)
	if err != nil {
		return nil, err
	}
	mrTime := time.Since(t0)
	rep.Rows = append(rep.Rows, []string{
		"mapreduce", ms(mrTime), fmt.Sprint(stats.ShuffleBytes), fmt.Sprint(len(mrOut)),
	})
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("hyracks speedup: %.1fx", float64(mrTime)/float64(hyracksTime)))
	rep.Measure("hyracks_time", "ms", float64(hyracksTime.Microseconds())/1000)
	rep.Measure("mapreduce_time", "ms", float64(mrTime.Microseconds())/1000)
	rep.MeasureHigher("hyracks_speedup", "x", float64(mrTime)/float64(hyracksTime))
	return rep, nil
}

// E5MemoryBudget regenerates the Figure 2 memory story: budgeted sorts
// degrade gracefully (spill) as the working memory shrinks below the
// data, and concurrent queries sharing one governed pool all complete by
// trading memory for spilling.
func E5MemoryBudget(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E5",
		Claim:  "operators spill and complete when data exceeds working memory (graceful degradation)",
		Header: []string{"budget", "time", "spill-runs", "peak-grant"},
	}
	dir := filepath.Join(workDir, "e5")
	defer removeScratch(dir)
	rows := scale.SortRows
	dataBytes := rows * 64
	budgets := []int{dataBytes * 2, dataBytes / 4, dataBytes / 16}
	budgetLabels := []string{"sort_mem2x", "sort_mem_quarter", "sort_mem_16th"}
	for bi, budget := range budgets {
		cluster, err := hyracks.NewCluster(1, dir)
		if err != nil {
			return nil, err
		}
		cluster.Gov = mem.NewGovernor(mem.Config{WorkingBytes: int64(budget)})
		j := hyracks.NewJob()
		scan := j.Add(hyracks.NewScan("gen", 1, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
			r := rand.New(rand.NewSource(5))
			for i := 0; i < rows; i++ {
				if err := emit(hyracks.Tuple{adm.Int64(r.Int63()), adm.String("payload-padding-1234567890")}); err != nil {
					return err
				}
			}
			return nil
		}))
		cmp := hyracks.Comparator{Columns: []int{0}}
		sortOp := j.Add(hyracks.NewSort("sort", 1, cmp))
		count := 0
		sink := j.Add(hyracks.NewFuncSink("sink", 1, func(p int, t hyracks.Tuple) error {
			count++
			return nil
		}))
		j.MustConnect(scan, sortOp, 0, hyracks.OneToOne())
		j.MustConnect(sortOp, sink, 0, hyracks.OneToOne())
		t0 := time.Now()
		if err := cluster.Run(rep.Ctx(), j); err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		if count != rows {
			return nil, fmt.Errorf("sort lost rows: %d of %d", count, rows)
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%dKB", budget/1024), ms(elapsed), fmt.Sprint(cluster.Nodes[0].Stats().Spills),
			fmt.Sprintf("%dKB", j.PeakWorkingBytes()/1024),
		})
		rep.Measure(budgetLabels[bi], "ms", float64(elapsed.Microseconds())/1000)
		rep.notePeak(j.PeakWorkingBytes())
	}

	// Concurrent variant: M simultaneous heavy group-by queries share one
	// governor whose pool holds about half of one query's hash table. The
	// governor admits each at its minimum grant and denies growth under
	// contention, so every query completes by spilling instead of failing.
	const concurrent = 3
	concBudget := dataBytes / 2
	cluster, err := hyracks.NewCluster(1, dir)
	if err != nil {
		return nil, err
	}
	gov := mem.NewGovernor(mem.Config{WorkingBytes: int64(concBudget)})
	cluster.Gov = gov
	type concRes struct {
		elapsed time.Duration
		peak    int64
		groups  int
		err     error
	}
	results := make([]concRes, concurrent)
	ctx := rep.Ctx() // resolve once: the span is goroutine-safe, lazy init is not
	var wg sync.WaitGroup
	for q := 0; q < concurrent; q++ {
		q := q
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := hyracks.NewJob()
			scan := j.Add(hyracks.NewScan("gen", 1, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
				r := rand.New(rand.NewSource(int64(100 + q)))
				for i := 0; i < rows; i++ {
					t := hyracks.Tuple{adm.Int64(r.Int63n(int64(rows / 4))), adm.String("payload-padding-1234567890")}
					if err := emit(t); err != nil {
						return err
					}
				}
				return nil
			}))
			gb := j.Add(hyracks.NewGroupBy("gb", 1, []int{0}, []hyracks.AggSpec{hyracks.CountAgg(-1)}))
			n := 0
			sink := j.Add(hyracks.NewFuncSink("sink", 1, func(p int, t hyracks.Tuple) error {
				n++
				return nil
			}))
			j.MustConnect(scan, gb, 0, hyracks.OneToOne())
			j.MustConnect(gb, sink, 0, hyracks.OneToOne())
			t0 := time.Now()
			err := cluster.Run(ctx, j)
			results[q] = concRes{elapsed: time.Since(t0), peak: j.PeakWorkingBytes(), groups: n, err: err}
		}()
	}
	wg.Wait()
	var concMax time.Duration
	for q, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("concurrent query %d: %w", q, r.err)
		}
		if r.groups == 0 {
			return nil, fmt.Errorf("concurrent query %d produced no groups", q)
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("conc-q%d/%dKB", q, concBudget/1024), ms(r.elapsed), "-",
			fmt.Sprintf("%dKB", r.peak/1024),
		})
		rep.notePeak(r.peak)
		if r.elapsed > concMax {
			concMax = r.elapsed
		}
	}
	rep.Measure("concurrent_makespan", "ms", float64(concMax.Microseconds())/1000)
	st := gov.StatsSnapshot()
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"concurrent: %d group-by queries over one %dKB pool; admission waits=%d grow-denials=%d spills=%d",
		concurrent, concBudget/1024, st.Waits, st.GrowDenied, cluster.Nodes[0].Stats().Spills))
	return rep, nil
}
