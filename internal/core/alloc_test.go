package core

import (
	"testing"

	"asterix/internal/adm"
	"asterix/internal/spatial"
)

// TestKernelAllocations is the allocation gate of building a record's
// secondary-index entries, which runs per index for every version of a
// record written: once the entry buffers have grown, it allocates nothing
// for any index kind. And a curve index's search over flushed components
// allocates per search and per component, not per curve range: a box of
// one range and one of scores of ranges cost the same.
func TestKernelAllocations(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `
		CREATE TYPE AT AS {id: int};
		CREATE DATASET A(AT) PRIMARY KEY id;
		CREATE INDEX aInt ON A(v);
		CREATE INDEX aStr ON A(s);
		CREATE INDEX aWords ON A(body) TYPE KEYWORD;
		CREATE INDEX aBox ON A(loc) TYPE RTREE;
		CREATE INDEX aZ ON A(loc) TYPE ZORDER;
		CREATE INDEX aH ON A(loc) TYPE HILBERT;
		CREATE INDEX aGrid ON A(loc) TYPE GRID;`)
	rec := adm.NewObject(
		adm.Field{Name: "id", Value: adm.Int64(123456)},
		adm.Field{Name: "v", Value: adm.Int64(9041)},
		adm.Field{Name: "s", Value: adm.String("ann")},
		adm.Field{Name: "body", Value: adm.String("like verizon its voice-clarity is amazing, like it")},
		adm.Field{Name: "loc", Value: adm.Point{X: 47.5, Y: -80.25}},
	)
	pk, err := adm.EncodeKey(nil, rec.Get("id"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aInt", "aStr", "aWords", "aBox", "aZ", "aH", "aGrid"} {
		si := indexOf(t, e, "A", name)
		var ks entryKeys
		build := func() {
			ks.reset()
			if err := si.appendEntries(&ks, pk, rec); err != nil {
				t.Fatal(err)
			}
		}
		build()
		if len(ks.ends) == 0 {
			t.Fatalf("%s (%s): the record has no entry", name, si.Kind())
		}
		if got := testing.AllocsPerRun(100, build); got != 0 {
			t.Errorf("%s (%s): %v allocations per record, want 0", name, si.Kind(), got)
		}
	}

	for id := 0; id < 200; id++ { // none in either box below
		rec.Set("id", adm.Int64(id))
		rec.Set("loc", adm.Point{X: 100 + float64(id)/4, Y: 20 + float64(id%7)})
		if err := e.UpsertValue("A", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	zi := indexOf(t, e, "A", "aZ")
	search := func(r adm.Rectangle) (ranges int, allocs float64) {
		x0, y0 := spatial.World.Norm.Lattice(r.MinX, r.MinY)
		x1, y1 := spatial.World.Norm.Lattice(r.MaxX, r.MaxY)
		return len(spatial.ZOrderRanges(x0, y0, x1, y1, spatial.RangeBudget)), testing.AllocsPerRun(50, func() {
			for p := range zi.trees {
				if n, err := zi.SearchSpatialCandidates(p, r); n != 0 || err != nil {
					t.Fatalf("search %v: %d candidates (err %v), want 0", r, n, err)
				}
			}
		})
	}
	oneRange, one := search(adm.Rectangle{MinX: -60.5, MinY: -30.25, MaxX: -60.5, MaxY: -30.25})
	manyRanges, many := search(adm.Rectangle{MinX: -100.3, MinY: -50.1, MaxX: -20.7, MaxY: 10.9})
	if oneRange != 1 || manyRanges < 20 || many != one {
		t.Errorf("flushed ZORDER search: %v allocations over %d ranges, %v over %d; want the same", one, oneRange, many, manyRanges)
	}
}
