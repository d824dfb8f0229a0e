package core

import (
	"testing"

	"asterix/internal/adm"
)

// TestKernelAllocations is the allocation gate of building a record's
// secondary-index entries, which runs per index for every version of a
// record written: once the entry buffers have grown, it allocates nothing
// for any index kind.
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
		if len(ks.ends)+len(ks.rects) == 0 {
			t.Fatalf("%s (%s): the record has no entry", name, si.Kind())
		}
		if got := testing.AllocsPerRun(100, build); got != 0 {
			t.Errorf("%s (%s): %v allocations per record, want 0", name, si.Kind(), got)
		}
	}
}
