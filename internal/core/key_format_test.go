package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/lsm"
)

// expectRows runs each query on each engine and compares its rows, in the
// query's order, with the wanted rendering.
func expectRows(t *testing.T, engines map[string]*Engine, want map[string]string) {
	t.Helper()
	for name, e := range engines {
		for q, w := range want {
			if got := fmt.Sprint(orderedRows(t, e, q)); got != w {
				t.Errorf("%s engine: %s returned %s, want %s", name, q, got, w)
			}
		}
	}
}

// NaN is one value, equal to itself and above +Inf, to every comparison, to
// ORDER BY and to an index search, with the optimizer on and off.
func TestNaNOrdersAboveInfinity(t *testing.T) {
	on, off, noIndex := engineTrio(t, Config{})
	engines := map[string]*Engine{"optimized": on, "optimizer off": off, "no index search": noIndex}
	for _, e := range engines {
		mustExec(t, e, `
			CREATE TYPE NT AS {id: int};
			CREATE DATASET N(NT) PRIMARY KEY id;
			CREATE INDEX nv ON N(v);
			UPSERT INTO N ([{"id": 1, "v": 1}, {"id": 2, "v": 5}, {"id": 3, "v": 1e308 * 10}, {"id": 4, "v": -1e308 * 10}, {"id": 5, "v": 2.5}]);`)
	}
	expectRows(t, engines, map[string]string{
		`SELECT VALUE sqrt(-1) = 5;`:                                     "[false]",
		`SELECT VALUE sqrt(-1) = sqrt(-1);`:                              "[true]",
		`SELECT VALUE sqrt(-1) > 1e308 * 10;`:                            "[true]",
		`SELECT VALUE n.id FROM N n WHERE sqrt(-1) = n.v;`:               "[]",
		`SELECT VALUE n.id FROM N n WHERE n.v >= sqrt(-1);`:              "[]",
		`SELECT VALUE n.id FROM N n WHERE n.v < sqrt(-1) ORDER BY n.id;`: "[1 2 3 4 5]",
	})
	for _, e := range engines {
		mustExec(t, e, `UPSERT INTO N ({"id": 6, "v": sqrt(-1)});`)
	}
	expectRows(t, engines, map[string]string{
		`SELECT VALUE n.id FROM N n ORDER BY n.v;`:                          "[4 1 5 2 3 6]",
		`SELECT VALUE n.id FROM N n ORDER BY n.v DESC;`:                     "[6 3 2 5 1 4]",
		`SELECT VALUE n.id FROM N n WHERE n.v = sqrt(-1);`:                  "[6]",
		`SELECT VALUE n.id FROM N n WHERE n.v > 1e308 * 10;`:                "[6]",
		`SELECT VALUE n.id FROM N n WHERE n.v <= 1e308 * 10 ORDER BY n.id;`: "[1 2 3 4 5]",
	})
	if plan, _ := on.Explain(`SELECT VALUE n.id FROM N n WHERE n.v = sqrt(-1);`); !strings.Contains(plan, "index-search") {
		t.Errorf("the NaN lookup does not search the index:\n%s", plan)
	}
}

// −0 and 0 are one value to every hash-based operator — group-by, hash join,
// DISTINCT and the hash exchange between partitions — as they are to
// comparison and to the nested-loop join.
func TestSignedZeroIsOneValue(t *testing.T) {
	for _, parts := range []int{1, 2} {
		on, off, _ := engineTrio(t, Config{Partitions: parts})
		engines := map[string]*Engine{"optimized": on, "optimizer off": off}
		for _, e := range engines {
			mustExec(t, e, `
				CREATE TYPE FT AS {id: int};
				CREATE DATASET F(FT) PRIMARY KEY id;
				UPSERT INTO F ([{"id": 1, "v": -0.4}, {"id": 2, "v": 0.2}, {"id": 3, "v": -0.3}, {"id": 4, "v": 4}]);`)
		}
		for name, e := range engines {
			for q, want := range map[string]string{
				`SELECT VALUE COUNT(*) FROM F d GROUP BY round(d.v) AS g;`:                                         "[1 3]",
				`SELECT VALUE COUNT(*) FROM F a, F b WHERE round(a.v) = round(b.v);`:                               "[10]",
				`SELECT VALUE COUNT(*) FROM F a, F b WHERE round(a.v) <= round(b.v) AND round(a.v) >= round(b.v);`: "[10]",
				`SELECT VALUE COUNT(*) FROM (SELECT DISTINCT VALUE round(d.v) FROM F d) AS r;`:                     "[2]",
			} {
				if got := fmt.Sprint(sortedRows(t, e, q)); got != want {
					t.Errorf("%d partitions, %s engine: %s returned %s, want %s", parts, name, q, got, want)
				}
			}
		}
	}
}

// Integers keep every bit in their keys: two ids beyond 2^53 are two
// records, each found by GetKey and by the primary index, and an indexed
// field holding them is searched by the BTREE as a scan compares it.
func TestExactIntegerKeys(t *testing.T) {
	on, off, noIndex := engineTrio(t, Config{})
	engines := map[string]*Engine{"optimized": on, "optimizer off": off, "no index search": noIndex}
	for _, e := range engines {
		mustExec(t, e, `
			CREATE TYPE XT AS {id: int};
			CREATE DATASET X(XT) PRIMARY KEY id;
			CREATE INDEX xv ON X(v);
			UPSERT INTO X ([{"id": 9007199254740992, "v": 9007199254740992},
				{"id": 9007199254740993, "v": 9007199254740993},
				{"id": -9223372036854775807, "v": 9223372036854775807}]);`)
	}
	want := map[string]string{
		`SELECT VALUE COUNT(*) FROM X x;`:                                        "[3]",
		`SELECT VALUE x.id FROM X x WHERE x.id = 9007199254740993;`:              "[9007199254740993]",
		`SELECT VALUE x.id FROM X x WHERE x.v = 9007199254740993;`:               "[9007199254740993]",
		`SELECT VALUE x.id FROM X x WHERE x.v = 9007199254740992.0;`:             "[9007199254740992]",
		`SELECT VALUE x.id FROM X x WHERE x.v > 9007199254740992 ORDER BY x.id;`: "[-9223372036854775807 9007199254740993]",
		`SELECT VALUE x.v FROM X x WHERE x.id = -9223372036854775807;`:           "[9223372036854775807]",
	}
	expectRows(t, engines, want)
	for q := range want {
		if plan, _ := on.Explain(q); strings.Contains(q, "WHERE") && !strings.Contains(plan, "index-search") {
			t.Errorf("%s: plan does not search an index:\n%s", q, plan)
		}
	}
	for _, id := range []int64{1 << 53, 1<<53 + 1, -1<<63 + 1} {
		if o, ok, err := on.GetKey("X", adm.Int64(id)); err != nil || !ok || adm.Compare(o.Get("id"), adm.Int64(id)) != 0 {
			t.Errorf("GetKey(%d) = %v, %v, %v", id, o, ok, err)
		}
	}
	if err := on.DeleteKey("X", adm.Int64(1<<53+1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := on.GetKey("X", adm.Int64(1<<53+1)); ok || err != nil {
		t.Errorf("GetKey(2^53+1) after its delete: %v, %v", ok, err)
	}
	if got := fmt.Sprint(orderedRows(t, on, `SELECT VALUE x.id FROM X x WHERE x.id = 9007199254740992;`)); got != "[9007199254740992]" {
		t.Errorf("2^53 after the delete of 2^53+1: %s", got)
	}
}

// checkStoredKeys asserts that every key d stores is EncodeKey's: the key of
// each primary record is the key of its primary key, and each BTREE or GRID
// entry is the key of its record's field (its cell), then the record's
// primary key.
func checkStoredKeys(t *testing.T, d *Dataset) {
	t.Helper()
	for p, tree := range d.parts {
		if err := tree.Scan(nil, nil, func(k, v []byte) bool {
			rec, err := d.decodeRecord(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := adm.EncodeKey(nil, rec.Get(d.def.PrimaryKey[0]))
			if err != nil || !bytes.Equal(k, want) {
				t.Fatalf("partition %d stores record %v under % x, want % x (%v)", p, rec, k, want, err)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, si := range d.idxs {
			if si.def.Kind != "BTREE" && si.def.Kind != "GRID" {
				continue
			}
			if err := si.trees[p].Scan(nil, nil, func(k, _ []byte) bool {
				n, err := adm.KeyLen(k)
				if err != nil {
					t.Fatalf("%s entry % x: %v", si.def.Name, k, err)
				}
				rec, ok, err := d.getRecord(p, k[n:])
				if err != nil || !ok {
					t.Fatalf("%s entry % x names no record (%v)", si.def.Name, k, err)
				}
				var want []byte
				if fv := rec.Get(si.def.Fields[0]); si.def.Kind == "GRID" {
					want = si.appendCellKey(nil, fv.(adm.Point))
				} else {
					want, _ = adm.EncodeKey(nil, fv)
				}
				if !bytes.Equal(k[:n], want) {
					t.Fatalf("%s entry % x of record %v: key % x, want % x", si.def.Name, k, rec, k[:n], want)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A dataset with integer and double values, and ids and values beyond 2^53,
// keeps EncodeKey's keys in its primary index and in its BTREE and GRID
// entries through upserts, overwrites, deletes, a flush, a merge, a crash and
// an index build, and answers GetKey, scans and index searches as a map of
// its records does.
func TestStoredKeysThroughHistory(t *testing.T) {
	t.Setenv("ASTERIX_INVARIANTS", "1")
	e := newEngine(t, Config{MergePolicy: lsm.ConstantPolicy{Components: 1}})
	mustExec(t, e, `
		CREATE TYPE OT AS {id: int};
		CREATE DATASET O(OT) PRIMARY KEY id;
		CREATE INDEX ov ON O(v);
		CREATE INDEX og ON O(loc) TYPE GRID;`)
	oracle := map[int64]adm.Value{}
	upsert := func(lo, hi int64, v func(id int64) adm.Value) {
		var recs []string
		for id := lo; id < hi; id++ {
			oracle[id] = v(id)
			recs = append(recs, fmt.Sprintf(`{"id": %d, "v": %s, "loc": point(%d, %d)}`, id, oracle[id], id%50, id%20))
		}
		mustExec(t, e, `UPSERT INTO O ([`+strings.Join(recs, ",")+`]);`)
	}
	check := func(when string) {
		t.Helper()
		d, _ := e.Dataset("O")
		checkStoredKeys(t, d)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		var ids []int64
		for id := range oracle {
			ids = append(ids, id)
			o, ok, err := e.GetKey("O", adm.Int64(id))
			if err != nil || !ok || adm.Compare(o.Get("v"), oracle[id]) != 0 {
				t.Fatalf("%s: GetKey(%d) = %v, %v, %v; want v %v", when, id, o, ok, err, oracle[id])
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if got := fmt.Sprint(orderedRows(t, e, `SELECT VALUE o.id FROM O o ORDER BY o.id;`)); got != fmt.Sprint(ids) {
			t.Fatalf("%s: scan returned %s, want %v", when, got, ids)
		}
		for _, c := range []string{"7", "7.5", "9007199254740992", "9007199254740993", "-3"} {
			cv := queryRows(t, e, `SELECT VALUE `+c+`;`)[0]
			for _, op := range []string{"=", "<", ">", ">="} {
				q := fmt.Sprintf(`SELECT VALUE o.id FROM O o WHERE o.v %s %s ORDER BY o.id;`, op, c)
				if plan, _ := e.Explain(q); !strings.Contains(plan, "index-search") {
					t.Fatalf("%s: plan does not search an index:\n%s", q, plan)
				}
				var want []int64
				for _, id := range ids {
					cmp := adm.Compare(oracle[id], cv)
					if op == "=" && cmp == 0 || op == "<" && cmp < 0 || op == ">" && cmp > 0 || op == ">=" && cmp >= 0 {
						want = append(want, id)
					}
				}
				if got := fmt.Sprint(orderedRows(t, e, q)); got != fmt.Sprint(want) {
					t.Fatalf("%s: %s returned %s, want %v", when, q, got, want)
				}
			}
		}
		q := `SELECT VALUE o.id FROM O o WHERE spatial_intersect(o.loc, create_rectangle(-0.5, -0.5, 3.5, 3.5)) ORDER BY o.id;`
		var want []int64
		for _, id := range ids {
			if id%50 <= 3 && id%20 <= 3 {
				want = append(want, id)
			}
		}
		if got := fmt.Sprint(orderedRows(t, e, q)); got != fmt.Sprint(want) {
			t.Fatalf("%s: %s returned %s, want %v", when, q, got, want)
		}
	}

	upsert(0, 200, func(id int64) adm.Value { return adm.Int64(id % 13) })
	upsert(200, 204, func(id int64) adm.Value { return adm.Int64(1<<53 + id%2) })
	upsert(204, 210, func(id int64) adm.Value { return adm.Double(float64(id%5) + 0.5) })
	upsert(1<<53, 1<<53+2, func(id int64) adm.Value { return adm.Int64(id % 7) })
	check("in memory")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	upsert(100, 300, func(id int64) adm.Value { return adm.Int64(id%11 - 3) })
	mustExec(t, e, `DELETE FROM O o WHERE o.id >= 50 AND o.id < 60 OR o.id = 9007199254740993;`)
	for _, id := range []int64{50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 1<<53 + 1} {
		delete(oracle, id)
	}
	check("flushed, then overwritten")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d, _ := e.Dataset("O"); func() int { _, m := d.LSMStats(); return m }() == 0 {
		t.Fatal("no merge ran")
	}
	check("merged")
	upsert(290, 320, func(id int64) adm.Value { return adm.Int64(1<<53 + id%3) })
	e = crashAndReopen(t, e)
	check("reopened after a crash")
	mustExec(t, e, `DROP INDEX O.ov; CREATE INDEX ov ON O(v);`)
	check("index built anew")
}
