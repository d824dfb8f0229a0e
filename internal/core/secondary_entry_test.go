package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/algebricks"
	"asterix/internal/lsm"
	"asterix/internal/rtree"
)

func indexOf(t *testing.T, e *Engine, dataset, index string) *SecondaryIndex {
	t.Helper()
	si, ok := e.SecondaryIndexHandle(dataset, index)
	if !ok {
		t.Fatalf("no index %s.%s", dataset, index)
	}
	return si
}

// searchIDs runs one direct index search on every partition and returns the
// ids of the records it emits that pass keep, sorted, with the number of
// records emitted: each is one primary Get that found its record.
func searchIDs(t *testing.T, si *SecondaryIndex, keep func(*adm.Object) bool,
	search func(part int, emit func(algebricks.Record) error) error) (ids []int, fetched int) {
	t.Helper()
	for p := range si.ds.parts {
		err := search(p, decoded(func(v adm.Value) error {
			fetched++
			if o := v.(*adm.Object); keep == nil || keep(o) {
				id, _ := adm.AsInt(o.Get("id"))
				ids = append(ids, int(id))
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Ints(ids)
	return ids, fetched
}

// Bounds are decided on key bytes. Every comparison operator, on numbers of
// both kinds against constants of both kinds, on strings that are prefixes
// of one another, on tokens that are, and on integers beyond 2^53, finds
// through the index what a scan finds — and SearchRange fetches no record
// that adm.Compare puts outside the bounds (an exclusive bound costs no
// Get).
func TestSecondaryBoundsOnKeyBytes(t *testing.T) {
	t.Run("ExactKeys", testSecondaryBounds)
}

func testSecondaryBounds(t *testing.T) {
	on, off, noIndex := engineTrio(t, Config{})
	recs := []string{
		`{"id": 1, "v": 4, "s": "a", "t": "ab abc"}`, `{"id": 2, "v": 5, "s": "ab", "t": "abc"}`,
		`{"id": 3, "v": 5.0, "s": "abc", "t": "ab"}`, `{"id": 4, "v": 5.5, "s": "abd", "t": "Ab, ab; aB"}`,
		`{"id": 5, "v": 6, "s": "", "t": "abcd"}`, `{"id": 6, "v": 9007199254740992, "s": "ab ", "t": "x"}`,
		`{"id": 7, "v": 9007199254740993, "s": "b"}`, `{"id": 8, "v": -5, "s": "ab"}`, `{"id": 9, "s": null}`,
	}
	for _, e := range []*Engine{on, off, noIndex} {
		mustExec(t, e, `
			CREATE TYPE BT AS {id: int};
			CREATE DATASET B(BT) PRIMARY KEY id;
			CREATE INDEX bv ON B(v);
			CREATE INDEX bs ON B(s);
			CREATE INDEX bt ON B(t) TYPE KEYWORD;
			UPSERT INTO B ([`+strings.Join(recs, ",")+`]);`)
	}
	constants := map[string][]string{
		"v": {"5", "5.0", "4.5", "6", "-5", "9007199254740992", "9007199254740993", "9007199254740994.0"},
		"s": {`"ab"`, `"abc"`, `"a"`, `""`, `"abb"`, `"b"`},
	}
	var queries []string
	for field, cs := range constants {
		for _, c := range cs {
			for _, op := range []string{"=", "<", "<=", ">", ">="} {
				queries = append(queries, fmt.Sprintf(`SELECT VALUE b.id FROM B b WHERE b.%s %s %s;`, field, op, c))
			}
			for _, c2 := range cs {
				queries = append(queries, fmt.Sprintf(`SELECT VALUE b.id FROM B b WHERE b.%s > %s AND b.%s <= %s;`, field, c, field, c2))
			}
		}
	}
	for _, tok := range []string{"ab", "abc", "a", "abcd", "x", "zz"} {
		queries = append(queries, fmt.Sprintf(`SELECT VALUE b.id FROM B b WHERE ftcontains(b.t, "%s");`, tok))
	}
	for _, q := range queries {
		want := sortedRows(t, off, q)
		if plan, _ := on.Explain(q); !strings.Contains(plan, "index-search") {
			t.Errorf("%s: plan does not search an index:\n%s", q, plan)
		}
		for name, e := range map[string]*Engine{"optimized": on, "no index search": noIndex} {
			if got := sortedRows(t, e, q); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s: %s engine returned %v, scan returned %v", q, name, got, want)
			}
		}
	}
	// The scan compares integers beyond 2^53 exactly.
	for q, want := range map[string]string{
		`SELECT VALUE b.id FROM B b WHERE b.v = 9007199254740993;`:   "7",
		`SELECT VALUE b.id FROM B b WHERE b.v = 9007199254740992.0;`: "6",
		`SELECT VALUE b.id FROM B b WHERE b.v > 9007199254740992;`:   "7",
	} {
		if got := strings.Join(sortedRows(t, off, q), ","); got != want {
			t.Errorf("%s: scan returned %s, want %s", q, got, want)
		}
	}

	// The same bounds on SearchRange itself, which has no residual above it:
	// it fetches exactly the records within them.
	all := queryRows(t, off, `SELECT VALUE b FROM B b;`)
	for field, cs := range constants {
		si := indexOf(t, on, "B", "b"+field)
		bounds := []adm.Value{nil}
		for _, c := range cs {
			bounds = append(bounds, queryRows(t, off, `SELECT VALUE `+c+`;`)[0])
		}
		for _, lo := range bounds {
			for _, hi := range bounds {
				for inc := 0; inc < 4; inc++ {
					loInc, hiInc := inc&1 != 0, inc&2 != 0
					within := func(o *adm.Object) bool {
						k := o.Get(field)
						if k.Kind() <= adm.KindNull {
							return false
						}
						if lo != nil {
							if c := adm.Compare(k, lo); c < 0 || c == 0 && !loInc {
								return false
							}
						}
						if hi != nil {
							if c := adm.Compare(k, hi); c > 0 || c == 0 && !hiInc {
								return false
							}
						}
						return true
					}
					var want []int
					for _, r := range all {
						if o := r.(*adm.Object); within(o) {
							id, _ := adm.AsInt(o.Get("id"))
							want = append(want, int(id))
						}
					}
					sort.Ints(want)
					got, fetched := searchIDs(t, si, within, func(p int, emit func(algebricks.Record) error) error {
						return si.SearchRange(p, lo, hi, loInc, hiInc, emit)
					})
					if fmt.Sprint(got) != fmt.Sprint(want) || fetched != len(want) {
						t.Errorf("SearchRange(%s: %v..%v, inclusive %v %v) fetched %d records, ids %v within the bounds; want %v",
							field, lo, hi, loInc, hiInc, fetched, got, want)
					}
				}
			}
		}
	}
	si := indexOf(t, on, "B", "bt")
	for tok, want := range map[string][]int{"ab": {1, 3, 4}, "ABC": {1, 2}, "a": nil, "abcd": {5}} {
		got, fetched := searchIDs(t, si, nil, func(p int, emit func(algebricks.Record) error) error {
			return si.SearchKeyword(p, tok, emit)
		})
		if fmt.Sprint(got) != fmt.Sprint(want) || fetched != len(want) {
			t.Errorf("SearchKeyword(%q) fetched %d records, ids %v; want %v", tok, fetched, got, want)
		}
	}
}

// kindsRec is a record of dataset M, which has an index of every kind: v,
// t and loc are indexed.
type kindsRec struct {
	v    int
	t    string
	x, y float64
}

func (r kindsRec) json(id int) string {
	return fmt.Sprintf(`{"id": %d, "v": %d, "t": "%s", "loc": point(%g, %g), "pad": "%d"}`, id, r.v, r.t, r.x, r.y, id)
}

const kindsDDL = `
CREATE TYPE MT AS {id: int};
CREATE DATASET M(MT) PRIMARY KEY id;
CREATE INDEX mB ON M(v);
CREATE INDEX mK ON M(t) TYPE KEYWORD;
CREATE INDEX mZ ON M(loc) TYPE ZORDER;
CREATE INDEX mH ON M(loc) TYPE HILBERT;
CREATE INDEX mG ON M(loc) TYPE GRID;
CREATE INDEX mR ON M(loc) TYPE RTREE;
`

// checkKinds compares every search kind of every index of M with the oracle.
func checkKinds(t *testing.T, e *Engine, oracle map[int]kindsRec, when string) {
	t.Helper()
	ids := func(keep func(kindsRec) bool) []int {
		var out []int
		for id, r := range oracle {
			if keep(r) {
				out = append(out, id)
			}
		}
		sort.Ints(out)
		return out
	}
	expect := func(what string, got []int, want []int) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %s returned ids %v, the oracle has %v", when, what, got, want)
		}
	}
	d, _ := e.Dataset("M")
	for _, lohi := range [][2]int{{0, 3}, {2, 2}, {5, 9}, {0, 100}} {
		lo, hi := lohi[0], lohi[1]
		si := indexOf(t, e, "M", "mB")
		got, _ := searchIDs(t, si, nil, func(p int, emit func(algebricks.Record) error) error {
			return si.SearchRange(p, adm.Int64(lo), adm.Int64(hi), true, true, emit)
		})
		expect(fmt.Sprintf("BTREE [%d..%d]", lo, hi), got, ids(func(r kindsRec) bool { return r.v >= lo && r.v <= hi }))
	}
	for _, tok := range []string{"red", "green", "blue", "teal"} {
		si := indexOf(t, e, "M", "mK")
		got, _ := searchIDs(t, si, nil, func(p int, emit func(algebricks.Record) error) error {
			return si.SearchKeyword(p, tok, emit)
		})
		expect("KEYWORD "+tok, got, ids(func(r kindsRec) bool { return strings.Contains(" "+r.t+" ", " "+tok+" ") }))
	}
	for _, rect := range []adm.Rectangle{{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}, {MinX: 0, MinY: 0, MaxX: 40, MaxY: 5}, {MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}} {
		for _, name := range []string{"mZ", "mH", "mG", "mR"} {
			si := indexOf(t, e, "M", name)
			inside := func(o *adm.Object) bool {
				p := o.Get("loc").(adm.Point)
				return rect.Contains(p.X, p.Y)
			}
			got, _ := searchIDs(t, si, inside, func(p int, emit func(algebricks.Record) error) error {
				return si.SearchSpatial(p, rect, emit)
			})
			expect(fmt.Sprintf("%s %v", si.Kind(), rect), got, ids(func(r kindsRec) bool { return rect.Contains(r.x, r.y) }))
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// An index of every kind holds a record's entries in the memory component
// and in disk components, through overwrites that move or keep them,
// deletes, flushes, a merge, a crash and an index build: every search kind
// answers as a map of the records does.
func TestEveryIndexKindThroughHistory(t *testing.T) {
	t.Setenv("ASTERIX_INVARIANTS", "1")
	e := newEngine(t, Config{MergePolicy: lsm.ConstantPolicy{Components: 1}})
	mustExec(t, e, kindsDDL)
	r := rand.New(rand.NewSource(28))
	colors := []string{"red", "green", "blue", "teal"}
	gen := func() kindsRec {
		return kindsRec{
			v: r.Intn(10), t: colors[r.Intn(4)] + " " + colors[r.Intn(4)],
			x: float64(r.Intn(120) - 60), y: float64(r.Intn(60) - 30),
		}
	}
	oracle := map[int]kindsRec{}
	upsert := func(lo, hi int, change func(old kindsRec) kindsRec) {
		var recs []string
		for id := lo; id < hi; id++ {
			oracle[id] = change(oracle[id])
			recs = append(recs, oracle[id].json(id))
		}
		mustExec(t, e, `UPSERT INTO M ([`+strings.Join(recs, ",")+`]);`)
	}
	fresh := func(kindsRec) kindsRec { return gen() }

	upsert(0, 60, fresh)
	checkKinds(t, e, oracle, "in memory")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	upsert(60, 90, fresh)
	upsert(10, 30, fresh)                                                              // overwrites of entries on disk
	upsert(30, 35, func(o kindsRec) kindsRec { o.x++; return o })                      // keeps v and t
	upsert(65, 68, func(o kindsRec) kindsRec { o.t = "teal " + o.t; o.v++; return o }) // in memory
	mustExec(t, e, `DELETE FROM M m WHERE m.id >= 35 AND m.id < 45;`)
	for id := 35; id < 45; id++ {
		delete(oracle, id)
	}
	checkKinds(t, e, oracle, "overwrites and deletes over a disk component")
	if err := e.Checkpoint(); err != nil { // second component: merge
		t.Fatal(err)
	}
	d, _ := e.Dataset("M")
	if _, merges := d.LSMStats(); merges == 0 {
		t.Fatal("no merge ran")
	}
	checkKinds(t, e, oracle, "merged")
	upsert(85, 110, fresh)
	mustExec(t, e, `DELETE FROM M m WHERE m.id = 3;`)
	delete(oracle, 3)
	if err := e.CrashStop(); err != nil {
		t.Fatal(err)
	}
	e2, err := e.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkKinds(t, e2, oracle, "reopened after a crash")
	mustExec(t, e2, `DROP INDEX M.mB; DROP INDEX M.mK; CREATE INDEX mB ON M(v); CREATE INDEX mK ON M(t) TYPE KEYWORD;`)
	checkKinds(t, e2, oracle, "indexes built anew")
}

// After a crash the primary index can be a flush ahead of a secondary: the
// record redo finds there had its entries in a memory component that is
// gone. Redo writes them whether or not they differ from the stored
// version's; outside redo an overwrite that keeps an index's entries writes
// none, and one that changes them writes the old ones' antimatter and the
// new ones.
func TestSecondaryWritesOnlyWhatChanged(t *testing.T) {
	t.Setenv("ASTERIX_INVARIANTS", "1")
	e := newEngine(t, Config{})
	mustExec(t, e, crashDDL)
	for id := 0; id < 50; id++ {
		if err := e.UpsertValue("KV", crashRec(id)); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := e.Dataset("KV")
	for _, p := range d.parts {
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CrashStop(); err != nil {
		t.Fatal(err)
	}
	e2, err := e.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	scanned := queryRows(t, e2, `SELECT VALUE v.id FROM KV v;`)
	if len(scanned) != 50 {
		t.Fatalf("recovered %d records, want 50", len(scanned))
	}
	checkCrashIndexes(t, e2, scanned)
	d2, _ := e2.Dataset("KV")
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}

	loc, val := indexOf(t, e2, "KV", "kvLoc"), indexOf(t, e2, "KV", "kvVal")
	written := func() [2]int64 { return [2]int64{loc.mWritten.Value(), val.mWritten.Value()} }
	skipped := func() [2]int64 { return [2]int64{loc.mSkipped.Value(), val.mSkipped.Value()} }
	step := func(what string, rec *adm.Object, wantWritten, wantSkipped [2]int64) {
		t.Helper()
		w0, s0 := written(), skipped()
		if err := e2.UpsertValue("KV", rec); err != nil {
			t.Fatal(err)
		}
		w1, s1 := written(), skipped()
		for i, name := range []string{"R-tree", "keyword"} {
			if w, s := w1[i]-w0[i], s1[i]-s0[i]; w != wantWritten[i] || s != wantSkipped[i] {
				t.Errorf("%s: %s index wrote %d entries and skipped %d writes, want %d and %d", what, name, w, s, wantWritten[i], wantSkipped[i])
			}
		}
	}
	same := crashRec(7)
	same.Set("pad", adm.String("x"))
	step("overwrite keeping loc and val", same, [2]int64{0, 0}, [2]int64{1, 1})
	moved := crashRec(7)
	moved.Set("loc", adm.Point{X: 3, Y: 3})
	step("overwrite moving loc", moved, [2]int64{2, 0}, [2]int64{0, 1})
	reworded := crashRec(7)
	reworded.Set("loc", adm.Point{X: 3, Y: 3})
	reworded.Set("val", adm.String("two words"))
	step("overwrite rewording val", reworded, [2]int64{0, 3}, [2]int64{1, 0})
	step("fresh insert", crashRec(1000), [2]int64{1, 1}, [2]int64{0, 0})
	for _, q := range []string{
		`SELECT VALUE v.id FROM KV v WHERE ftcontains(v.val, "v0007");`,
		`SELECT VALUE v.id FROM KV v WHERE spatial_intersect(v.loc, create_rectangle(6.5, -0.5, 7.5, 0.5));`,
	} {
		if rows := queryRows(t, e2, q); len(rows) != 0 {
			t.Errorf("%s: the replaced entries still answer: %v", q, rows)
		}
	}
	for _, q := range []string{
		`SELECT VALUE v.id FROM KV v WHERE ftcontains(v.val, "words");`,
		`SELECT VALUE v.id FROM KV v WHERE spatial_intersect(v.loc, create_rectangle(2.5, 2.5, 3.5, 3.5)) AND v.id = 7;`,
	} {
		if rows := queryRows(t, e2, q); len(rows) != 1 || rows[0].String() != "7" {
			t.Errorf("%s: got %v, want [7]", q, rows)
		}
	}
}

// TestRTreeOverwriteAcrossSignedZero: an overwrite that moves a point from
// -0 to +0 changes its R-tree entry, because the R-tree keys a pair by its
// rect's bits, so the overwrite writes the index, and deleting the record
// leaves no entry behind in it.
func TestRTreeOverwriteAcrossSignedZero(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `
		CREATE TYPE ZT AS {id: int};
		CREATE DATASET Z(ZT) PRIMARY KEY id;
		CREATE INDEX zLoc ON Z(loc) TYPE RTREE;`)
	for _, x := range []float64{math.Copysign(0, -1), 0} {
		if err := e.UpsertValue("Z", adm.NewObject(adm.Field{Name: "id", Value: adm.Int64(1)}, adm.Field{Name: "loc", Value: adm.Point{X: x, Y: 5}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DeleteKey("Z", adm.Int64(1)); err != nil {
		t.Fatal(err)
	}
	world := rtree.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	for p, rt := range indexOf(t, e, "Z", "zLoc").rts {
		if err := rt.Search(world, func(r rtree.Rect, pk []byte) bool {
			t.Errorf("partition %d: entry %v of pk %x outlives its record", p, r, pk)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSecondariesOpenWithoutFilters: a secondary index's B+trees are
// scanned, never asked for one key, so their components carry no bloom
// filter and opening the engine does not read their leaves to build one:
// a reopen reads at most the primary index's pages and one meta page per
// secondary component. The indexes answer as before.
func TestSecondariesOpenWithoutFilters(t *testing.T) {
	t.Setenv("ASTERIX_INVARIANTS", "1")
	e, err := Open(Config{DataDir: t.TempDir(), MemComponentBudget: 256 << 10, MergePolicy: lsm.NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, crashDDL+`CREATE INDEX kvValB ON KV(val);`)
	const n = 3000
	for id := 0; id < n; id++ {
		if err := e.UpsertValue("KV", crashRec(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	pageSize := int64(e.fm.PageSize())
	var primaryPages, secondaryPages, secondaryComponents int64
	for _, line := range strings.Split(storageLayout(t, e.cfg.DataDir), "\n") {
		var name string
		var size int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &size); err != nil || strings.HasSuffix(name, ".manifest") {
			continue
		}
		if strings.Contains(name, "/idx-") {
			secondaryPages += size / pageSize
			secondaryComponents++
		} else {
			primaryPages += size / pageSize
		}
	}
	if secondaryPages < 5*secondaryComponents {
		t.Fatalf("%d pages in %d secondary components: too few for the reads to tell", secondaryPages, secondaryComponents)
	}

	e2, err := e.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if reads := e2.bc.Stats().Reads; reads > primaryPages+secondaryComponents {
		t.Fatalf("reopen read %d pages: more than the %d primary pages and a meta page for each of %d secondary components (which hold %d pages)",
			reads, primaryPages, secondaryComponents, secondaryPages)
	}
	rows := queryRows(t, e2, `SELECT VALUE v.id FROM KV v;`)
	if len(rows) != n {
		t.Fatalf("scan found %d rows, want %d", len(rows), n)
	}
	checkCrashIndexes(t, e2, rows) // the R-tree against the scan, the keyword index id by id
	if got := queryRows(t, e2, `SELECT VALUE v.id FROM KV v WHERE v.val = "v0042";`); len(got) != 1 || got[0].String() != "42" {
		t.Fatalf("B-tree secondary lookup returned %v", got)
	}
	d, _ := e2.Dataset("KV")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
