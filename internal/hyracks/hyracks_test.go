package hyracks

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"asterix/internal/adm"
)

func newCluster(t testing.TB, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(nodes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rangeScan emits tuples (i, i*10) for i in the partition's share of [0, n).
func rangeScan(n int) func(tc *TaskContext, emit func(Tuple) error) error {
	return func(tc *TaskContext, emit func(Tuple) error) error {
		for i := tc.Partition; i < n; i += tc.NumPartitions {
			if err := emit(Tuple{adm.Int64(i), adm.Int64(i * 10)}); err != nil {
				return err
			}
		}
		return nil
	}
}

func collectInts(coll *Collector, col int) []int {
	var out []int
	for _, t := range coll.Tuples() {
		v, _ := adm.AsInt(t[col])
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}

func TestScanFilterSink(t *testing.T) {
	c := newCluster(t, 2)
	j := NewJob()
	scan := j.Add(NewScan("scan", 4, rangeScan(100)))
	filter := j.Add(NewMap("filter", 4, func(tc *TaskContext, tp Tuple, emit func(Tuple) error) error {
		if v, _ := adm.AsInt(tp[0]); v%2 != 0 {
			return nil
		}
		return emit(tp)
	}))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 4, coll))
	j.MustConnect(scan, filter, 0, OneToOne())
	j.MustConnect(filter, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	got := collectInts(coll, 0)
	if len(got) != 50 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestHashPartitionConnector(t *testing.T) {
	c := newCluster(t, 2)
	j := NewJob()
	scan := j.Add(NewScan("scan", 3, rangeScan(1000)))
	// Count tuples per consumer partition; same key must land on the same
	// partition.
	seen := make([]map[int]bool, 4)
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	sink := j.Add(NewFuncSink("sink", 4, func(p int, tp Tuple) error {
		v, _ := adm.AsInt(tp[0])
		seen[p][int(v)] = true
		return nil
	}))
	j.MustConnect(scan, sink, 0, HashPartition(0))
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, m := range seen {
		total += len(m)
		if len(m) == 0 {
			t.Errorf("partition %d got nothing (bad hash spread)", i)
		}
		for k := range m {
			for jx, m2 := range seen {
				if jx != i && m2[k] {
					t.Fatalf("key %d appears in partitions %d and %d", k, i, jx)
				}
			}
		}
	}
	if total != 1000 {
		t.Fatalf("total = %d", total)
	}
}

func TestBroadcastConnector(t *testing.T) {
	c := newCluster(t, 1)
	j := NewJob()
	scan := j.Add(NewScan("scan", 1, rangeScan(10)))
	counts := make([]int, 3)
	sink := j.Add(NewFuncSink("sink", 3, func(p int, tp Tuple) error {
		counts[p]++
		return nil
	}))
	j.MustConnect(scan, sink, 0, Broadcast())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	for p, n := range counts {
		if n != 10 {
			t.Errorf("partition %d got %d tuples, want 10", p, n)
		}
	}
}

func TestSortInMemoryAndMergeOrdered(t *testing.T) {
	c := newCluster(t, 2)
	j := NewJob()
	n := 5000
	scan := j.Add(NewScan("scan", 4, func(tc *TaskContext, emit func(Tuple) error) error {
		r := rand.New(rand.NewSource(int64(tc.Partition)))
		for i := 0; i < n/4; i++ {
			if err := emit(Tuple{adm.Int64(r.Intn(100000))}); err != nil {
				return err
			}
		}
		return nil
	}))
	cmp := Comparator{Columns: []int{0}}
	sortOp := j.Add(NewSort("sort", 4, cmp))
	coll := &Collector{}
	sink := j.Add(NewOrderedSink("sink", coll))
	j.MustConnect(scan, sortOp, 0, OneToOne())
	j.MustConnect(sortOp, sink, 0, MergeOrdered(cmp))
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	ts := coll.Tuples()
	if len(ts) != (n/4)*4 {
		t.Fatalf("got %d tuples", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if adm.Compare(ts[i-1][0], ts[i][0]) > 0 {
			t.Fatalf("global order violated at %d", i)
		}
	}
}

func TestSortSpills(t *testing.T) {
	c := newSpillCluster(t, 1, 4<<10) // tiny budget forces spilling
	j := NewJob()
	n := 3000
	scan := j.Add(NewScan("scan", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		r := rand.New(rand.NewSource(9))
		for i := 0; i < n; i++ {
			if err := emit(Tuple{adm.Int64(r.Intn(1 << 20)), adm.String("padding-padding-padding")}); err != nil {
				return err
			}
		}
		return nil
	}))
	cmp := Comparator{Columns: []int{0}}
	sortOp := j.Add(NewSort("sort", 1, cmp))
	coll := &Collector{}
	sink := j.Add(NewOrderedSink("sink", coll))
	j.MustConnect(scan, sortOp, 0, OneToOne())
	j.MustConnect(sortOp, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if coll.Len() != n {
		t.Fatalf("got %d tuples", coll.Len())
	}
	ts := coll.Tuples()
	for i := 1; i < len(ts); i++ {
		if adm.Compare(ts[i-1][0], ts[i][0]) > 0 {
			t.Fatalf("order violated at %d", i)
		}
	}
	if c.Nodes[0].Spills == 0 {
		t.Error("expected spills with a 4KB budget")
	}
}

// TestBoundedSortMatchesFullSortPrefix: a bounded sort must emit exactly
// the first k tuples a full sort emits — same tuples, same order among
// equal keys — on duplicate-heavy input, on one partition and on several
// merged, in memory and when k tuples themselves overflow the grant.
func TestBoundedSortMatchesFullSortPrefix(t *testing.T) {
	const perPart = 6000
	cmp := Comparator{Columns: []int{0}, Desc: []bool{true}}
	run := func(t *testing.T, c *Cluster, par, k int) []Tuple {
		j := NewJob()
		scan := j.Add(NewScan("scan", par, func(tc *TaskContext, emit func(Tuple) error) error {
			r := rand.New(rand.NewSource(int64(tc.Partition)))
			for i := 0; i < perPart; i++ {
				// 40 distinct keys; column 1 is the arrival position.
				tup := Tuple{adm.Int64(r.Intn(40)), adm.Int64(tc.Partition*perPart + i), adm.String("padding-padding-padding-padding")}
				if err := emit(tup); err != nil {
					return err
				}
			}
			return nil
		}))
		sortOp := j.Add(NewTopK("sort", par, cmp, k))
		coll := &Collector{}
		sink := j.Add(NewOrderedSink("sink", coll))
		j.MustConnect(scan, sortOp, 0, OneToOne())
		j.MustConnect(sortOp, sink, 0, MergeOrdered(cmp))
		if err := c.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		return coll.Tuples()
	}
	for _, par := range []int{1, 3} {
		for _, grant := range []int64{0, 64 << 10} {
			newC := func(t *testing.T) *Cluster {
				if grant == 0 {
					return newCluster(t, 1)
				}
				return newSpillCluster(t, 1, grant)
			}
			t.Run(fmt.Sprintf("partitions=%d/grant=%d", par, grant), func(t *testing.T) {
				full := run(t, newC(t), par, 0)
				if len(full) != par*perPart {
					t.Fatalf("full sort emitted %d tuples, want %d", len(full), par*perPart)
				}
				for _, k := range []int{1, 7, 150, 2500, par*perPart + 10} {
					c := newC(t)
					got := run(t, c, par, k)
					// Each partition keeps k, the merge interleaves them: the
					// first k of the merged stream are the global first k.
					want := full[:min(k, len(full))]
					if len(got) < len(want) {
						t.Fatalf("k=%d: %d tuples, want at least %d", k, len(got), len(want))
					}
					for i := range want {
						if adm.Compare(got[i][0], want[i][0]) != 0 || adm.Compare(got[i][1], want[i][1]) != 0 {
							t.Fatalf("k=%d: tuple %d is %v, full sort has %v", k, i, got[i], want[i])
						}
					}
					if grant != 0 && k == 2500 && c.TotalStats().Spills == 0 {
						t.Errorf("k=%d tuples fit a %d-byte grant; the spilling case proves nothing", k, grant)
					}
					if grant != 0 && k == 7 && c.TotalStats().Spills != 0 {
						t.Errorf("k=%d spilled %d runs under a %d-byte grant: it must hold only what it keeps", k, c.TotalStats().Spills, grant)
					}
				}
			})
		}
	}
}

// BenchmarkSortLimit: one partition sorting 100k tuples, keeping the
// first 50 against keeping all — what ORDER BY … LIMIT 50 saves.
func BenchmarkSortLimit(b *testing.B) {
	const n = 100000
	r := rand.New(rand.NewSource(1))
	input := make([]Tuple, n)
	for i := range input {
		input[i] = Tuple{adm.String(fmt.Sprintf("message %08d", r.Intn(n))), adm.Int64(i)}
	}
	cmp := Comparator{Columns: []int{0}, Desc: []bool{true}}
	for _, bc := range []struct {
		name    string
		k, rows int
	}{{"k=50", 50, 50}, {"unbounded", 0, n}} {
		k := bc.k
		b.Run(bc.name, func(b *testing.B) {
			c := newCluster(b, 1)
			b.ReportAllocs()
			for iter := 0; iter < b.N; iter++ {
				j := NewJob()
				scan := j.Add(NewScan("scan", 1, func(tc *TaskContext, emit func(Tuple) error) error {
					for _, tup := range input {
						if err := emit(tup); err != nil {
							return err
						}
					}
					return nil
				}))
				sortOp := j.Add(NewTopK("sort", 1, cmp, k))
				var rows int
				sink := j.Add(NewFuncSink("sink", 1, func(int, Tuple) error { rows++; return nil }))
				j.MustConnect(scan, sortOp, 0, OneToOne())
				j.MustConnect(sortOp, sink, 0, OneToOne())
				if err := c.Run(context.Background(), j); err != nil {
					b.Fatal(err)
				}
				if rows != bc.rows {
					b.Fatalf("sink saw %d rows, want %d", rows, bc.rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

func TestSortDescending(t *testing.T) {
	c := newCluster(t, 1)
	j := NewJob()
	scan := j.Add(NewScan("scan", 1, rangeScan(100)))
	cmp := Comparator{Columns: []int{0}, Desc: []bool{true}}
	sortOp := j.Add(NewSort("sort", 1, cmp))
	coll := &Collector{}
	sink := j.Add(NewOrderedSink("sink", coll))
	j.MustConnect(scan, sortOp, 0, OneToOne())
	j.MustConnect(sortOp, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	ts := coll.Tuples()
	for i := 1; i < len(ts); i++ {
		if adm.Compare(ts[i-1][0], ts[i][0]) < 0 {
			t.Fatal("descending order violated")
		}
	}
}

func TestHashJoinInner(t *testing.T) {
	c := newCluster(t, 2)
	j := NewJob()
	// Left: (i, i*10) for i in 0..99. Right: (i, i*100) for even i in 0..199.
	left := j.Add(NewScan("left", 2, rangeScan(100)))
	right := j.Add(NewScan("right", 2, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := tc.Partition; i < 200; i += tc.NumPartitions {
			if i%2 != 0 {
				continue
			}
			if err := emit(Tuple{adm.Int64(i), adm.Int64(i * 100)}); err != nil {
				return err
			}
		}
		return nil
	}))
	join := j.Add(NewHashJoin("join", 3, []int{0}, []int{0}, InnerJoin, 2, nil))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 3, coll))
	j.MustConnect(left, join, 0, HashPartition(0))
	j.MustConnect(right, join, 1, HashPartition(0))
	j.MustConnect(join, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	ts := coll.Tuples()
	if len(ts) != 50 {
		t.Fatalf("joined %d tuples, want 50", len(ts))
	}
	for _, tp := range ts {
		l, _ := adm.AsInt(tp[0])
		r, _ := adm.AsInt(tp[2])
		if l != r {
			t.Fatalf("mismatched join: %v", tp)
		}
		if v, _ := adm.AsInt(tp[3]); v != l*100 {
			t.Fatalf("right payload wrong: %v", tp)
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	c := newCluster(t, 1)
	j := NewJob()
	left := j.Add(NewScan("left", 1, rangeScan(10)))
	right := j.Add(NewScan("right", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		return emit(Tuple{adm.Int64(3), adm.String("match")})
	}))
	join := j.Add(NewHashJoin("join", 1, []int{0}, []int{0}, LeftOuterJoin, 2, nil))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(left, join, 0, OneToOne())
	j.MustConnect(right, join, 1, OneToOne())
	j.MustConnect(join, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	ts := coll.Tuples()
	if len(ts) != 10 {
		t.Fatalf("outer join returned %d", len(ts))
	}
	matches, misses := 0, 0
	for _, tp := range ts {
		if tp[2].Kind() == adm.KindMissing {
			misses++
		} else {
			matches++
		}
	}
	if matches != 1 || misses != 9 {
		t.Fatalf("matches=%d misses=%d", matches, misses)
	}
}

func TestHashJoinGraceSpill(t *testing.T) {
	c := newSpillCluster(t, 1, 2<<10) // force grace mode
	j := NewJob()
	n := 2000
	left := j.Add(NewScan("left", 1, rangeScan(n)))
	right := j.Add(NewScan("right", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := 0; i < n; i++ {
			if err := emit(Tuple{adm.Int64(i), adm.String("right-payload-right-payload")}); err != nil {
				return err
			}
		}
		return nil
	}))
	join := j.Add(NewHashJoin("join", 1, []int{0}, []int{0}, InnerJoin, 2, nil))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(left, join, 0, OneToOne())
	j.MustConnect(right, join, 1, OneToOne())
	j.MustConnect(join, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if coll.Len() != n {
		t.Fatalf("grace join returned %d, want %d", coll.Len(), n)
	}
	if c.Nodes[0].Spills == 0 {
		t.Error("expected grace spills")
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	c := newCluster(t, 1)
	j := NewJob()
	left := j.Add(NewScan("left", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		emit(Tuple{adm.Null, adm.String("l")})
		return emit(Tuple{adm.Int64(1), adm.String("l")})
	}))
	right := j.Add(NewScan("right", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		emit(Tuple{adm.Null, adm.String("r")})
		return emit(Tuple{adm.Int64(1), adm.String("r")})
	}))
	join := j.Add(NewHashJoin("join", 1, []int{0}, []int{0}, InnerJoin, 2, nil))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(left, join, 0, OneToOne())
	j.MustConnect(right, join, 1, OneToOne())
	j.MustConnect(join, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if coll.Len() != 1 {
		t.Fatalf("null keys matched: %d results", coll.Len())
	}
}

// TestJoinNullBuildKeysAreNotSpilled: a build tuple with a null or missing
// key can never match and no join preserves its build side, so 40 000 of
// them under a 4 KiB grant are neither stored nor spilled, and every kind
// answers as over the one keyed build tuple.
func TestJoinNullBuildKeysAreNotSpilled(t *testing.T) {
	const rows = 40000
	for _, c := range []struct {
		kind     JoinKind
		out, hit int // rows out, and of them those carrying the build tuple
	}{{InnerJoin, 1, 1}, {LeftOuterJoin, 11, 1}, {LeftSemiJoin, 1, 0}} {
		cl := newSpillCluster(t, 1, 4<<10)
		j := NewJob()
		left := j.Add(NewScan("left", 1, func(tc *TaskContext, emit func(Tuple) error) error {
			if err := emit(Tuple{adm.Null, adm.String("l")}); err != nil {
				return err
			}
			return rangeScan(10)(tc, emit)
		}))
		right := j.Add(NewScan("right", 1, func(tc *TaskContext, emit func(Tuple) error) error {
			for i := 0; i < rows; i++ {
				key := adm.Value(adm.Null)
				if i%2 == 0 {
					key = adm.Missing
				}
				if err := emit(Tuple{key, adm.String("padding-padding-padding")}); err != nil {
					return err
				}
			}
			return emit(Tuple{adm.Int64(3), adm.String("match")})
		}))
		join := j.Add(NewHashJoin("join", 1, []int{0}, []int{0}, c.kind, 2, nil))
		coll := &Collector{}
		sink := j.Add(NewSink("sink", 1, coll))
		j.MustConnect(left, join, 0, OneToOne())
		j.MustConnect(right, join, 1, OneToOne())
		j.MustConnect(join, sink, 0, OneToOne())
		if err := cl.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		hit := 0
		for _, tp := range coll.Tuples() {
			if len(tp) == 4 && adm.Equal(tp[3], adm.String("match")) {
				hit++
			}
		}
		if coll.Len() != c.out || hit != c.hit {
			t.Errorf("join kind %d: %d rows, %d matched, want %d and %d", c.kind, coll.Len(), hit, c.out, c.hit)
		}
		if s := cl.TotalStats().Spills; s != 0 {
			t.Errorf("join kind %d: %d spills of build tuples that cannot match", c.kind, s)
		}
	}
}

func TestNestedLoopJoin(t *testing.T) {
	c := newCluster(t, 1)
	j := NewJob()
	left := j.Add(NewScan("left", 1, rangeScan(20)))
	right := j.Add(NewScan("right", 1, rangeScan(20)))
	// Non-equi predicate: l.0 < r.0 - 15.
	join := j.Add(NewNestedLoopJoin("nl", 1, func(l, r Tuple) (bool, error) {
		lv, _ := adm.AsInt(l[0])
		rv, _ := adm.AsInt(r[0])
		return lv < rv-15, nil
	}, InnerJoin, 2))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(left, join, 0, OneToOne())
	j.MustConnect(right, join, 1, Broadcast())
	j.MustConnect(join, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	// Pairs with l < r-15: r in 16..19, l < r-15 -> (0..0, 16), (0..1, 17)... = 1+2+3+4 = 10.
	if coll.Len() != 10 {
		t.Fatalf("NL join returned %d, want 10", coll.Len())
	}
}

func TestGroupByParallel(t *testing.T) {
	c := newCluster(t, 2)
	j := NewJob()
	// 1000 tuples, group = i%10, value = i.
	scan := j.Add(NewScan("scan", 4, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := tc.Partition; i < 1000; i += tc.NumPartitions {
			if err := emit(Tuple{adm.Int64(i % 10), adm.Int64(i)}); err != nil {
				return err
			}
		}
		return nil
	}))
	gb := j.Add(NewGroupBy("gb", 3, []int{0}, []AggSpec{CountAgg(-1), SumAgg(1), MinAgg(1), MaxAgg(1), AvgAgg(1)}))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 3, coll))
	j.MustConnect(scan, gb, 0, HashPartition(0))
	j.MustConnect(gb, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	ts := coll.Tuples()
	if len(ts) != 10 {
		t.Fatalf("groups = %d", len(ts))
	}
	for _, tp := range ts {
		g, _ := adm.AsInt(tp[0])
		cnt, _ := adm.AsInt(tp[1])
		sum, _ := adm.AsInt(tp[2])
		min, _ := adm.AsInt(tp[3])
		max, _ := adm.AsInt(tp[4])
		if cnt != 100 {
			t.Fatalf("group %d count %d", g, cnt)
		}
		// sum of g, g+10, ..., g+990 = 100g + 10*(0+10+...+990)
		want := 100*g + 10*49500/10
		if sum != want {
			t.Fatalf("group %d sum %d, want %d", g, sum, want)
		}
		if min != g || max != g+990 {
			t.Fatalf("group %d min/max %d/%d", g, min, max)
		}
		avg, _ := adm.AsFloat(tp[5])
		if avg != float64(want)/100 {
			t.Fatalf("group %d avg %f", g, avg)
		}
	}
}

func TestGroupBySpill(t *testing.T) {
	c := newSpillCluster(t, 1, 2<<10)
	j := NewJob()
	scan := j.Add(NewScan("scan", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := 0; i < 5000; i++ {
			if err := emit(Tuple{adm.Int64(i % 500), adm.Int64(1)}); err != nil {
				return err
			}
		}
		return nil
	}))
	gb := j.Add(NewGroupBy("gb", 1, []int{0}, []AggSpec{CountAgg(-1)}))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(scan, gb, 0, OneToOne())
	j.MustConnect(gb, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if coll.Len() != 500 {
		t.Fatalf("groups = %d, want 500 (spill merge broken?)", coll.Len())
	}
	for _, tp := range coll.Tuples() {
		if cnt, _ := adm.AsInt(tp[1]); cnt != 10 {
			t.Fatalf("count = %d, want 10", cnt)
		}
	}
	if c.Nodes[0].Spills == 0 {
		t.Error("expected aggregation spills")
	}
}

func TestDistinct(t *testing.T) {
	c := newCluster(t, 1)
	j := NewJob()
	scan := j.Add(NewScan("scan", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := 0; i < 100; i++ {
			if err := emit(Tuple{adm.Int64(i % 7)}); err != nil {
				return err
			}
		}
		return nil
	}))
	d := j.Add(NewGroupBy("distinct", 1, []int{0}, nil))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(scan, d, 0, OneToOne())
	j.MustConnect(d, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if coll.Len() != 7 {
		t.Fatalf("distinct returned %d", coll.Len())
	}
}

func TestErrorPropagationCancelsJob(t *testing.T) {
	c := newCluster(t, 2)
	j := NewJob()
	scan := j.Add(NewScan("scan", 2, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := 0; ; i++ {
			if tc.Partition == 1 && i == 10 {
				return fmt.Errorf("synthetic failure")
			}
			if i > 1_000_000 {
				return nil
			}
			if err := emit(Tuple{adm.Int64(i)}); err != nil {
				return err
			}
		}
	}))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 2, coll))
	j.MustConnect(scan, sink, 0, OneToOne())
	err := c.Run(context.Background(), j)
	if err == nil {
		t.Fatal("job should fail")
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	rw, err := NewRunWriter(t.TempDir(), &TaskContext{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Tuple{
		{adm.Int64(1), adm.String("a"), adm.Null},
		{adm.NewObject(adm.Field{Name: "x", Value: adm.Int64(2)})},
		{},
		{adm.String(strings.Repeat("longer than the run buffer ", 3*runBufSize/27))},
	}
	// Enough small tuples to cross the buffer a few times, on both sides.
	for i := 0; i < 3*runBufSize/20; i++ {
		want = append(want, Tuple{adm.Int64(i), adm.String("0123456789")})
	}
	for _, tp := range want {
		if err := rw.Write(tp); err != nil {
			t.Fatal(err)
		}
	}
	rr, err := rw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	for i := range want {
		got, ok, err := rr.Next()
		if err != nil || !ok {
			t.Fatalf("next %d: %v %v", i, ok, err)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("tuple %d width %d", i, len(got))
		}
		for c := range got {
			if adm.Compare(got[c], want[i][c]) != 0 {
				t.Fatalf("tuple %d col %d: %v != %v", i, c, got[c], want[i][c])
			}
		}
	}
	if _, ok, _ := rr.Next(); ok {
		t.Fatal("extra tuple")
	}
}

func BenchmarkParallelGroupBy(b *testing.B) {
	c := newCluster(b, 4)
	for iter := 0; iter < b.N; iter++ {
		j := NewJob()
		scan := j.Add(NewScan("scan", 4, func(tc *TaskContext, emit func(Tuple) error) error {
			for i := tc.Partition; i < 100000; i += tc.NumPartitions {
				if err := emit(Tuple{adm.Int64(i % 100), adm.Int64(i)}); err != nil {
					return err
				}
			}
			return nil
		}))
		gb := j.Add(NewGroupBy("gb", 4, []int{0}, []AggSpec{CountAgg(-1), SumAgg(1)}))
		coll := &Collector{}
		sink := j.Add(NewSink("sink", 4, coll))
		j.MustConnect(scan, gb, 0, HashPartition(0))
		j.MustConnect(gb, sink, 0, OneToOne())
		if err := c.Run(context.Background(), j); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHashJoinResidualPredicate(t *testing.T) {
	c := newCluster(t, 1)
	j := NewJob()
	left := j.Add(NewScan("left", 1, rangeScan(10)))
	right := j.Add(NewScan("right", 1, rangeScan(10)))
	// Keys equal AND the residual demands the right payload be >= 50
	// (i.e. i >= 5).
	residual := func(l, r Tuple) (bool, error) {
		v, _ := adm.AsInt(r[1])
		return v >= 50, nil
	}
	join := j.Add(NewHashJoin("join", 1, []int{0}, []int{0}, LeftOuterJoin, 2, residual))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(left, join, 0, OneToOne())
	j.MustConnect(right, join, 1, OneToOne())
	j.MustConnect(join, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	ts := coll.Tuples()
	if len(ts) != 10 {
		t.Fatalf("outer join rows: %d", len(ts))
	}
	matches, outers := 0, 0
	for _, tp := range ts {
		if tp[2].Kind() == adm.KindMissing {
			outers++
		} else {
			matches++
		}
	}
	// i in 5..9 match; 0..4 padded.
	if matches != 5 || outers != 5 {
		t.Fatalf("matches=%d outers=%d", matches, outers)
	}
}

func TestHashSemiJoinResidual(t *testing.T) {
	c := newCluster(t, 1)
	j := NewJob()
	left := j.Add(NewScan("left", 1, rangeScan(20)))
	right := j.Add(NewScan("right", 1, rangeScan(20)))
	residual := func(l, r Tuple) (bool, error) {
		v, _ := adm.AsInt(r[0])
		return v%2 == 0, nil
	}
	join := j.Add(NewHashJoin("semi", 1, []int{0}, []int{0}, LeftSemiJoin, 2, residual))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(left, join, 0, OneToOne())
	j.MustConnect(right, join, 1, OneToOne())
	j.MustConnect(join, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if coll.Len() != 10 {
		t.Fatalf("semi join with residual: %d rows, want 10", coll.Len())
	}
}
