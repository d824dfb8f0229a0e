package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"asterix/internal/adm"
	"asterix/internal/aql"
	"asterix/internal/core"
	"asterix/internal/feed"
	"asterix/internal/hyracks"
	"asterix/internal/lsm"
)

// E6HTAPIsolation regenerates the Figure 7 story: a KV front end keeps
// serving operations while its mutation stream feeds a shadow dataset that
// heavy analytics queries run against.
func E6HTAPIsolation(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E6",
		Claim:  "shadow-ingest analytics: front-end ops continue while analytics runs (performance isolation)",
		Header: []string{"phase", "frontend-ops/s", "analytics-queries", "shadow-lag"},
	}
	dir := filepath.Join(workDir, "e6")
	defer removeScratch(dir)
	e, err := newEngine(dir, 2, nil, 0)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ctx := rep.Ctx()
	if _, err := e.Execute(ctx, `
		CREATE TYPE DocType AS {id: string};
		CREATE DATASET Shadow(DocType) PRIMARY KEY id;`); err != nil {
		return nil, err
	}

	store := feed.NewKVStore()
	link := &feed.ShadowLink{Store: store, Sink: engineSink{e}, Dataset: "Shadow", PKField: "id"}

	// Seed the store and shadow it.
	r := rand.New(rand.NewSource(6))
	for i := 0; i < scale.Users; i++ {
		store.Set(fmt.Sprintf("doc%d", i), adm.NewObject(
			adm.Field{Name: "v", Value: adm.Int64(int64(r.Intn(100)))},
			adm.Field{Name: "grp", Value: adm.Int64(int64(i % 50))},
		))
	}
	if err := link.CatchUp(ctx); err != nil {
		return nil, err
	}

	frontendOps := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				store.Set(fmt.Sprintf("doc%d", r.Intn(scale.Users)), adm.NewObject(
					adm.Field{Name: "v", Value: adm.Int64(int64(i))},
					adm.Field{Name: "grp", Value: adm.Int64(int64(i % 50))},
				))
			} else {
				store.Get(fmt.Sprintf("doc%d", r.Intn(scale.Users)))
			}
		}
		return time.Since(t0)
	}

	// Phase A: front end alone.
	opsN := scale.Users * 2
	alone := frontendOps(opsN)

	// Phase B: concurrent analytics on the shadow.
	var queries int64
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := e.Query(ctx, `
				SELECT s.grp AS grp, COUNT(*) AS n, AVG(s.v) AS avgv
				FROM Shadow s GROUP BY s.grp AS grp;`)
			if err != nil {
				done <- err
				return
			}
			atomic.AddInt64(&queries, 1)
		}
	}()
	concurrent := frontendOps(opsN)
	close(stop)
	if err := <-done; err != nil {
		return nil, err
	}
	if err := link.CatchUp(ctx); err != nil {
		return nil, err
	}

	rate := func(d time.Duration) string {
		return fmt.Sprintf("%.0f", float64(opsN)/d.Seconds())
	}
	rep.Rows = append(rep.Rows,
		[]string{"frontend alone", rate(alone), "0", "-"},
		[]string{"frontend + analytics", rate(concurrent), fmt.Sprint(atomic.LoadInt64(&queries)), fmt.Sprint(link.Lag())},
	)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("slowdown under concurrent analytics: %.2fx (isolation: no locks shared; remaining cost is CPU sharing)",
			float64(concurrent)/float64(alone)))
	rep.MeasureHigher("frontend_alone_ops", "ops/s", float64(opsN)/alone.Seconds())
	rep.MeasureHigher("frontend_concurrent_ops", "ops/s", float64(opsN)/concurrent.Seconds())
	rep.Measure("analytics_slowdown", "x", float64(concurrent)/float64(alone))
	return rep, nil
}

// engineSink adapts the engine to feed.Sink.
type engineSink struct{ e *core.Engine }

func (s engineSink) Upsert(dataset string, rec *adm.Object) error {
	return s.e.UpsertValue(dataset, rec)
}
func (s engineSink) Delete(dataset string, pk ...adm.Value) error {
	return s.e.DeleteKey(dataset, pk...)
}

// E7AqlVsSqlpp regenerates the peer-language claim: AQL and SQL++ versions
// of the same queries return identical results with comparable times,
// because they share the algebra and runtime.
func E7AqlVsSqlpp(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E7",
		Claim:  "AQL and SQL++ are peers over one algebra: identical results, comparable times",
		Header: []string{"query", "sqlpp", "aql", "ratio", "rows-equal"},
	}
	dir := filepath.Join(workDir, "e7")
	defer removeScratch(dir)
	e, err := newEngine(dir, 2, nil, 0)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := ingestGleambook(e, scale.Users, scale.Messages, 7); err != nil {
		return nil, err
	}
	ctx := rep.Ctx()
	pairs := []struct {
		name, sqlpp, aql string
	}{
		{
			"filter-project",
			`SELECT VALUE u.alias FROM GleambookUsers u WHERE u.id < 100 ORDER BY u.alias;`,
			`for $u in dataset GleambookUsers where $u.id < 100 order by $u.alias return $u.alias`,
		},
		{
			"group-count",
			`SELECT VALUE COUNT(m) FROM GleambookMessages m GROUP BY m.authorId AS a ORDER BY a LIMIT 50;`,
			`for $m in dataset GleambookMessages group by $a := $m.authorId with $m order by $a limit 50 return count($m)`,
		},
	}
	for _, p := range pairs {
		t0 := time.Now()
		sqlRes, err := e.Query(ctx, p.sqlpp)
		if err != nil {
			return nil, fmt.Errorf("sqlpp %s: %w", p.name, err)
		}
		sqlTime := time.Since(t0)

		q, err := aql.Parse(p.aql)
		if err != nil {
			return nil, fmt.Errorf("aql parse %s: %w", p.name, err)
		}
		t0 = time.Now()
		aqlRes, err := e.QueryAST(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("aql %s: %w", p.name, err)
		}
		aqlTime := time.Since(t0)

		equal := len(sqlRes.Rows) == len(aqlRes.Rows)
		if equal {
			for i := range sqlRes.Rows {
				if adm.Compare(sqlRes.Rows[i], aqlRes.Rows[i]) != 0 {
					equal = false
					break
				}
			}
		}
		rep.Rows = append(rep.Rows, []string{
			p.name, ms(sqlTime), ms(aqlTime),
			fmt.Sprintf("%.2f", float64(aqlTime)/float64(sqlTime)),
			fmt.Sprint(equal),
		})
		rep.Measure("sqlpp_"+p.name, "ms", float64(sqlTime.Microseconds())/1000)
		rep.Measure("aql_"+p.name, "ms", float64(aqlTime.Microseconds())/1000)
		if !equal {
			return nil, fmt.Errorf("E7: %s: AQL and SQL++ results differ", p.name)
		}
	}
	return rep, nil
}

// E8MergePolicy is the LSM merge-policy ablation: no-merge accumulates
// components (fast ingest, slow reads); merging bounds read cost at write
// cost.
func E8MergePolicy(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E8",
		Claim:  "LSM merge policy trades ingest cost against read amplification",
		Header: []string{"policy", "ingest", "components", "merges", "get(avg)"},
	}
	policies := []struct {
		name   string
		policy lsm.MergePolicy
	}{
		{"none", lsm.NoMergePolicy{}},
		{"constant(4)", lsm.ConstantPolicy{Components: 4}},
		{"tiered", lsm.TieredPolicy{}},
	}
	for _, pc := range policies {
		dir := filepath.Join(workDir, "e8-"+pc.name)
		e, err := newEngine(dir, 1, pc.policy, 24<<10) // tiny budget → many flushes
		if err != nil {
			return nil, err
		}
		if _, err := e.Execute(context.Background(), `
			CREATE TYPE KT AS {id: int, pad: string};
			CREATE DATASET KV(KT) PRIMARY KEY id;`); err != nil {
			e.Close()
			return nil, err
		}
		t0 := time.Now()
		pad := adm.String(string(make([]byte, 100)))
		for i := 0; i < scale.Keys; i++ {
			if err := e.UpsertValue("KV", adm.NewObject(
				adm.Field{Name: "id", Value: adm.Int64(int64(i))},
				adm.Field{Name: "pad", Value: pad},
			)); err != nil {
				e.Close()
				return nil, err
			}
		}
		ingest := time.Since(t0)
		ds, _ := e.Dataset("KV")
		comps, merges := ds.LSMStats()

		r := rand.New(rand.NewSource(8))
		probes := 2000
		t0 = time.Now()
		for i := 0; i < probes; i++ {
			if _, ok, err := e.GetKey("KV", adm.Int64(int64(r.Intn(scale.Keys)))); err != nil || !ok {
				e.Close()
				return nil, fmt.Errorf("get failed: %v %v", ok, err)
			}
		}
		get := time.Since(t0) / time.Duration(probes)
		rep.Rows = append(rep.Rows, []string{
			pc.name, ms(ingest), fmt.Sprint(comps), fmt.Sprint(merges),
			fmt.Sprintf("%.1fµs", float64(get.Nanoseconds())/1000),
		})
		key := strings.NewReplacer("(", "", ")", "").Replace(pc.name)
		rep.Measure("ingest_"+key, "ms", float64(ingest.Microseconds())/1000)
		rep.Measure("get_"+key, "us", float64(get.Nanoseconds())/1000)
		rep.Measure("components_"+key, "count", float64(comps))
		e.Close()
		removeScratch(dir)
	}
	return rep, nil
}

// E9Figure3 runs the paper's own Figure 3(c) query (stored ⨝ external with
// a quantifier and grouping) end-to-end at scale.
func E9Figure3(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E9",
		Claim:  "the paper's Figure 3 application runs end-to-end (DDL, external data, quantified join, grouping)",
		Header: []string{"users", "log-lines", "query-time", "groups"},
	}
	dir := filepath.Join(workDir, "e9")
	defer removeScratch(dir)
	e, err := newEngine(filepath.Join(dir, "engine"), 2, nil, 0)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ctx := rep.Ctx()
	if _, err := e.Execute(ctx, gleambookDDL); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < scale.Users; i++ {
		if err := e.UpsertValue("GleambookUsers", GenUser(i, scale.Users, r)); err != nil {
			return nil, err
		}
	}
	logPath, err := WriteAccessLog(dir, scale.LogLines, scale.Users, 9)
	if err != nil {
		return nil, err
	}
	if _, err := e.Execute(ctx, accessLogDDL(logPath)); err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := e.Query(ctx, `
WITH endTime AS current_datetime(),
     startTime AS endTime - duration("P30D")
SELECT nf AS numFriends, COUNT(user) AS activeUsers
FROM GleambookUsers user
LET nf = COLL_COUNT(user.friendIds)
WHERE SOME logrec IN AccessLog SATISFIES
      user.alias = logrec.user
  AND datetime(logrec.time) >= startTime
  AND datetime(logrec.time) <= endTime
GROUP BY nf;`)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	rep.notePeak(res.PeakWorkingMem)
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprint(scale.Users), fmt.Sprint(scale.LogLines), ms(elapsed), fmt.Sprint(len(res.Rows)),
	})
	rep.Measure("figure3_query", "ms", float64(elapsed.Microseconds())/1000)
	return rep, nil
}

// E10Recovery measures WAL redo: ingest, lose all memory components, and
// replay committed updates.
func E10Recovery(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E10",
		Claim:  "crash recovery replays committed updates from the redo log into memory components",
		Header: []string{"records", "ingest", "recovery", "records/s", "verified"},
	}
	dir := filepath.Join(workDir, "e10")
	defer removeScratch(dir)
	cfg := core.Config{DataDir: dir, Partitions: 2, NoSyncCommits: true, Now: fixedClock()}
	e, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := e.Execute(ctx, `
		CREATE TYPE KT AS {id: int, v: int};
		CREATE DATASET KV(KT) PRIMARY KEY id;`); err != nil {
		e.Close()
		return nil, err
	}
	n := scale.Keys / 2
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := e.UpsertValue("KV", adm.NewObject(
			adm.Field{Name: "id", Value: adm.Int64(int64(i))},
			adm.Field{Name: "v", Value: adm.Int64(int64(i * 3))},
		)); err != nil {
			e.Close()
			return nil, err
		}
	}
	ingest := time.Since(t0)
	// "Crash": close without checkpoint — memory components are lost and
	// only the WAL survives.
	if err := e.Close(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	e2, err := core.Open(cfg) // recovery happens here
	if err != nil {
		return nil, err
	}
	defer e2.Close()
	recovery := time.Since(t0)
	// Verify a sample.
	verified := true
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		id := r.Intn(n)
		rec, ok, err := e2.GetKey("KV", adm.Int64(int64(id)))
		if err != nil || !ok {
			verified = false
			break
		}
		if v, _ := adm.AsInt(rec.Get("v")); v != int64(id*3) {
			verified = false
			break
		}
	}
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprint(n), ms(ingest), ms(recovery),
		fmt.Sprintf("%.0f", float64(n)/recovery.Seconds()),
		fmt.Sprint(verified),
	})
	rep.Measure("wal_ingest", "ms", float64(ingest.Microseconds())/1000)
	rep.Measure("recovery", "ms", float64(recovery.Microseconds())/1000)
	rep.MeasureHigher("recovery_rate", "records/s", float64(n)/recovery.Seconds())
	if !verified {
		return nil, fmt.Errorf("E10: recovered data failed verification")
	}
	return rep, nil
}

// allocsPerRun reports the average heap allocations of one call to f,
// measured exactly via the runtime's malloc counter (the same technique
// as testing.AllocsPerRun, without importing testing into the product
// binary).
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up: one-time lazy initialization doesn't count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// E14HotPathAllocs is the allocation gate of adm.Compare, adm.Hash64 and
// the in-memory group-by pipeline. The comparator and hash are measured
// on both the typical small shapes (which must run allocation-free
// through the stack-index path) and on wide shapes, which still take the
// pre-optimization sorted-copy fallback — so the wide numbers double as
// the "before" measurement of the eliminated allocations. The group-by
// row measures whole-pipeline allocations per input tuple; its "before"
// shape paid two extra allocations per probe (a fresh key Tuple and a
// fresh column list for hashing). `asterixbench -compare` fails a run in
// which any of these counters grows by more than half an allocation.
func E14HotPathAllocs(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E14",
		Claim:  "ADM compare/hash kernels and the group-by probe are allocation-free on typical shapes (wide fallbacks double as the pre-optimization baseline)",
		Header: []string{"kernel", "shape", "allocs/op"},
	}
	mkObj := func(fields int, salt int64) *adm.Object {
		fs := make([]adm.Field, fields)
		for i := range fs {
			fs[i] = adm.Field{Name: fmt.Sprintf("f%02d", (i*7)%fields), Value: adm.Int64(int64(i) + salt)}
		}
		return adm.NewObject(fs...)
	}
	smallA, smallB := mkObj(8, 0), mkObj(8, 1)
	wideA, wideB := mkObj(24, 0), mkObj(24, 1)
	// Pre-box the multiset as a Value: converting a slice header to an
	// interface at the call site allocates, and that belongs to the
	// caller's shape, not the kernel under measurement.
	var smallSet adm.Value = adm.Multiset{adm.Int64(3), adm.String("b"), adm.Int64(1), adm.String("a")}

	measure := func(name, shape string, f func()) float64 {
		n := allocsPerRun(200, f)
		rep.Rows = append(rep.Rows, []string{name, shape, fmt.Sprintf("%.1f", n)})
		rep.Measure(name, "allocs/op", n)
		return n
	}
	small := measure("adm_compare_object_small", "8 fields", func() { adm.Compare(smallA, smallB) })
	wide := measure("adm_compare_object_wide", "24 fields (legacy path)", func() { adm.Compare(wideA, wideB) })
	if small > 0 {
		return nil, fmt.Errorf("E14: small-object Compare allocates %.1f/op, want 0", small)
	}
	hsmall := measure("adm_hash_object_small", "8 fields", func() { adm.Hash64(smallA) })
	measure("adm_hash_object_wide", "24 fields (legacy path)", func() { adm.Hash64(wideA) })
	if hsmall > 0 {
		return nil, fmt.Errorf("E14: small-object Hash64 allocates %.1f/op, want 0", hsmall)
	}
	msmall := measure("adm_compare_multiset_small", "4 elements", func() { adm.Compare(smallSet, smallSet) })
	if msmall > 0 {
		return nil, fmt.Errorf("E14: small-multiset Compare allocates %.1f/op, want 0", msmall)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"wide-object fallback (the pre-optimization code path for ALL shapes) pays %.1f allocs per Compare; typical shapes now pay 0", wide))

	// Whole-pipeline check: allocations per input tuple of an in-memory
	// group-by job. The probe path used to add 2 allocs/tuple on top of
	// the pipeline's own framing.
	dir := filepath.Join(workDir, "e14")
	defer removeScratch(dir)
	rows := scale.SortRows
	runJob := func() (float64, error) {
		cluster, err := hyracks.NewCluster(1, dir)
		if err != nil {
			return 0, err
		}
		j := hyracks.NewJob()
		scan := j.Add(hyracks.NewScan("gen", 1, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
			r := rand.New(rand.NewSource(14))
			for i := 0; i < rows; i++ {
				if err := emit(hyracks.Tuple{adm.Int64(r.Int63n(64)), adm.Int64(int64(i))}); err != nil {
					return err
				}
			}
			return nil
		}))
		gb := j.Add(hyracks.NewGroupBy("agg", 1, []int{0}, []hyracks.AggSpec{hyracks.CountAgg(-1)}))
		groups := 0
		sink := j.Add(hyracks.NewFuncSink("sink", 1, func(p int, t hyracks.Tuple) error {
			groups++
			return nil
		}))
		j.MustConnect(scan, gb, 0, hyracks.OneToOne())
		j.MustConnect(gb, sink, 0, hyracks.OneToOne())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := cluster.Run(rep.Ctx(), j); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		if groups == 0 {
			return 0, fmt.Errorf("E14: group-by produced no groups")
		}
		return float64(after.Mallocs-before.Mallocs) / float64(rows), nil
	}
	if _, err := runJob(); err != nil { // warm up temp dirs and code paths
		return nil, err
	}
	perRow, err := runJob()
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, []string{"groupby_pipeline", fmt.Sprintf("%d rows, 64 groups", rows), fmt.Sprintf("%.2f", perRow)})
	rep.Measure("groupby_pipeline_allocs_per_row", "allocs/row", perRow)
	return rep, nil
}

// All returns every experiment in id order.
func All() []NamedExperiment {
	return []NamedExperiment{
		{"E1", E1ScaleOut}, {"E2", E2Spatial}, {"E3", E3BtreeVsHash},
		{"E4", E4MRvsHyracks}, {"E5", E5MemoryBudget}, {"E6", E6HTAPIsolation},
		{"E7", E7AqlVsSqlpp}, {"E8", E8MergePolicy}, {"E9", E9Figure3},
		{"E10", E10Recovery}, {"E11", E11PKSortAblation},
		{"E12", E12Compression},
		{"E14", E14HotPathAllocs}, {"E16", E16OptimizerJoinOrder},
	}
}

// NamedExperiment pairs an experiment id with its runner.
type NamedExperiment struct {
	ID  string
	Run func(scale Scale, workDir string) (*Report, error)
}

// E11PKSortAblation quantifies the pk-sort-before-fetch optimization the
// paper credits ([26], §V-B): resolving secondary-index candidates
// through the primary index in key order preserves access locality in the
// buffer cache; random-order fetch loses it. An ablation of one of the
// "usual tricks" the end-to-end spatial results depend on.
func E11PKSortAblation(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E11",
		Claim:  "pk-sorted candidate fetch ([26]) beats random-order fetch via buffer-cache locality",
		Header: []string{"fetch-order", "rows", "time", "physical-reads"},
	}
	dir := filepath.Join(workDir, "e11")
	defer removeScratch(dir)
	// A small buffer cache makes locality visible.
	e, err := core.Open(core.Config{
		DataDir:       dir,
		Partitions:    1,
		BufferPages:   96,
		NoSyncCommits: true,
		Now:           fixedClock(),
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Execute(ctx, `
		CREATE TYPE PointType AS {id: int, loc: point, payload: string};
		CREATE DATASET Points(PointType) PRIMARY KEY id;`); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < scale.Points; i++ {
		if err := e.UpsertValue("Points", GenPoint(i, r)); err != nil {
			return nil, err
		}
	}
	if _, err := e.Execute(ctx, `CREATE INDEX spIdx ON Points(loc) TYPE RTREE;`); err != nil {
		return nil, err
	}
	// Flush so fetches actually touch disk components via the cache.
	if err := e.Checkpoint(); err != nil {
		return nil, err
	}
	si, ok := e.SecondaryIndexHandle("Points", "spIdx")
	if !ok {
		return nil, fmt.Errorf("index handle missing")
	}
	rect := adm.Rectangle{MinX: -60, MinY: -30, MaxX: 60, MaxY: 30} // ~1/6 of the world
	for _, sorted := range []bool{true, false} {
		// Warm-up pass so both arms start from comparable cache states.
		if err := si.SearchSpatialAblation(0, rect, sorted, func(adm.Value) error { return nil }); err != nil {
			return nil, err
		}
		before := e.BufferCacheStats().Reads
		rows := 0
		t0 := time.Now()
		for q := 0; q < 3; q++ {
			rows = 0
			if err := si.SearchSpatialAblation(0, rect, sorted, func(adm.Value) error {
				rows++
				return nil
			}); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(t0) / 3
		reads := (e.BufferCacheStats().Reads - before) / 3
		label, key := "pk-sorted", "pk_sorted"
		if !sorted {
			label, key = "random-order", "random_order"
		}
		rep.Rows = append(rep.Rows, []string{label, fmt.Sprint(rows), ms(elapsed), fmt.Sprint(reads)})
		rep.Measure("fetch_"+key, "ms", float64(elapsed.Microseconds())/1000)
		rep.Measure("reads_"+key, "pages", float64(reads))
	}
	return rep, nil
}

// E12Compression measures the storage-compression feature §VII credits to
// community contributors: bytes on disk and scan cost with record
// compression on vs off.
func E12Compression(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E12",
		Claim:  "record compression shrinks storage at modest scan cost (the §VII community feature)",
		Header: []string{"compression", "ingest", "storage-bytes", "full-scan"},
	}
	for _, compress := range []bool{false, true} {
		dir := filepath.Join(workDir, fmt.Sprintf("e12-%v", compress))
		e, err := core.Open(core.Config{
			DataDir:       dir,
			Partitions:    1,
			Compression:   compress,
			NoSyncCommits: true,
			Now:           fixedClock(),
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		if _, err := e.Execute(ctx, `
			CREATE TYPE BT AS {id: int, blob: string};
			CREATE DATASET Blobs(BT) PRIMARY KEY id;`); err != nil {
			e.Close()
			return nil, err
		}
		// Realistically compressible payloads (log-line-ish text).
		r := rand.New(rand.NewSource(12))
		n := scale.Keys / 4
		t0 := time.Now()
		for i := 0; i < n; i++ {
			blob := fmt.Sprintf("GET /api/v2/users/%d?session=%08x&lang=en-US status=200 bytes=%d agent=Mozilla/5.0",
				r.Intn(5000), r.Uint32(), 100+r.Intn(900))
			blob = blob + blob // double for compressibility
			if err := e.UpsertValue("Blobs", adm.NewObject(
				adm.Field{Name: "id", Value: adm.Int64(int64(i))},
				adm.Field{Name: "blob", Value: adm.String(blob)},
			)); err != nil {
				e.Close()
				return nil, err
			}
		}
		ingest := time.Since(t0)
		if err := e.Checkpoint(); err != nil {
			e.Close()
			return nil, err
		}
		size, err := dirSize(filepath.Join(dir, "storage"))
		if err != nil {
			e.Close()
			return nil, err
		}
		t0 = time.Now()
		res, err := e.Query(ctx, `SELECT VALUE COUNT(*) FROM Blobs b;`)
		if err != nil {
			e.Close()
			return nil, err
		}
		scan := time.Since(t0)
		if cnt, _ := adm.AsInt(res.Rows[0]); cnt != int64(n) {
			e.Close()
			return nil, fmt.Errorf("E12: scan count %d != %d", cnt, n)
		}
		e.Close()
		label := "off"
		if compress {
			label = "on"
		}
		rep.Rows = append(rep.Rows, []string{label, ms(ingest), fmt.Sprint(size), ms(scan)})
		rep.Measure("storage_bytes_"+label, "bytes", float64(size))
		rep.Measure("scan_"+label, "ms", float64(scan.Microseconds())/1000)
		removeScratch(dir)
	}
	return rep, nil
}

// dirSize sums file sizes under root.
func dirSize(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
