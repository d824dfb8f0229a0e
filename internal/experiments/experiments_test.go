package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny keeps the smoke tests fast.
var tiny = Scale{Users: 200, Messages: 600, Points: 2000, Keys: 2000,
	LogLines: 200, SortRows: 3000, Queries: 1}

func runExp(t *testing.T, f func(Scale, string) (*Report, error)) *Report {
	t.Helper()
	rep, err := f(tiny, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), rep.ID) {
		t.Error("report print missing id")
	}
	return rep
}

func TestE1ScaleOut(t *testing.T) {
	rep := runExp(t, E1ScaleOut)
	if len(rep.Rows) != 3 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	if rep.Rows[0][0] != "1" || rep.Rows[2][0] != "4" {
		t.Errorf("partition column: %v", rep.Rows)
	}
}

func TestE2Spatial(t *testing.T) {
	rep := runExp(t, E2Spatial)
	// 4 index kinds × 3 selectivities.
	if len(rep.Rows) != 12 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	// Same selectivity row blocks must agree on result count across
	// index kinds (they answer the same query).
	bySel := map[string]string{}
	for _, row := range rep.Rows {
		key := row[1]
		if prev, ok := bySel[key]; ok {
			if prev != row[5] {
				t.Errorf("selectivity %s: result count differs across indexes: %s vs %s",
					key, prev, row[5])
			}
		} else {
			bySel[key] = row[5]
		}
	}
	// Candidates >= rows (superset property).
	for _, row := range rep.Rows {
		c, _ := strconv.Atoi(row[2])
		n, _ := strconv.Atoi(row[5])
		if c < n {
			t.Errorf("%s: candidates %d < results %d", row[0], c, n)
		}
	}
}

func TestE3BtreeVsHash(t *testing.T) {
	rep := runExp(t, E3BtreeVsHash)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	if rep.Rows[0][0] != "B+tree" || rep.Rows[1][0] != "linear-hash" {
		t.Errorf("structure column: %v", rep.Rows)
	}
}

func TestE4MRvsHyracks(t *testing.T) {
	rep := runExp(t, E4MRvsHyracks)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	// Both engines must produce the same number of result groups.
	if rep.Rows[0][3] != rep.Rows[1][3] {
		t.Errorf("result rows differ: hyracks %s vs mr %s", rep.Rows[0][3], rep.Rows[1][3])
	}
	// MR must actually shuffle bytes to disk.
	if rep.Rows[1][2] == "0" {
		t.Error("mapreduce reported no shuffle bytes")
	}
}

func TestE5MemoryBudget(t *testing.T) {
	rep := runExp(t, E5MemoryBudget)
	if len(rep.Rows) != 6 {
		t.Fatalf("rows: %d, want 3 budget sweeps + 3 concurrent queries", len(rep.Rows))
	}
	// Tightest budget must spill; largest must not.
	if rep.Rows[0][2] != "0" {
		t.Errorf("over-provisioned sort spilled: %v", rep.Rows[0])
	}
	if rep.Rows[2][2] == "0" {
		t.Errorf("tight-budget sort did not spill: %v", rep.Rows[2])
	}
	// Concurrent queries sharing one governed pool all completed and
	// report a nonzero granted peak.
	for _, row := range rep.Rows[3:] {
		if !strings.HasPrefix(row[0], "conc-q") {
			t.Errorf("concurrent row mislabeled: %v", row)
		}
		if row[3] == "0KB" {
			t.Errorf("concurrent query reported no peak grant: %v", row)
		}
	}
}

func TestE6HTAPIsolation(t *testing.T) {
	rep := runExp(t, E6HTAPIsolation)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	if rep.Rows[1][3] != "0" {
		t.Errorf("shadow lag nonzero after catch-up: %v", rep.Rows[1])
	}
}

func TestE7AqlVsSqlpp(t *testing.T) {
	rep := runExp(t, E7AqlVsSqlpp)
	for _, row := range rep.Rows {
		if row[4] != "true" {
			t.Errorf("results differ for %s", row[0])
		}
	}
}

func TestE8MergePolicy(t *testing.T) {
	rep := runExp(t, E8MergePolicy)
	if len(rep.Rows) != 3 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	noneComps, _ := strconv.Atoi(rep.Rows[0][2])
	constComps, _ := strconv.Atoi(rep.Rows[1][2])
	if noneComps <= constComps {
		t.Errorf("no-merge should accumulate more components: none=%d constant=%d",
			noneComps, constComps)
	}
}

func TestE9Figure3(t *testing.T) {
	rep := runExp(t, E9Figure3)
	if len(rep.Rows) != 1 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	if rep.Rows[0][3] == "0" {
		t.Error("figure 3 query returned no groups")
	}
}

func TestE10Recovery(t *testing.T) {
	rep := runExp(t, E10Recovery)
	if rep.Rows[0][4] != "true" {
		t.Error("recovery verification failed")
	}
}

func TestE13NodeFailure(t *testing.T) {
	rep := runExp(t, E13NodeFailure)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
	if rep.Rows[0][0] != "healthy" || rep.Rows[1][0] != "node-killed" {
		t.Errorf("scenario column: %v", rep.Rows)
	}
	// The wounded run must have retried and named the dead node.
	if rep.Rows[1][2] == "1" || rep.Rows[1][3] == "" {
		t.Errorf("no retry recorded: %v", rep.Rows[1])
	}
	// Same answer either way.
	if rep.Rows[0][4] != rep.Rows[1][4] {
		t.Errorf("row counts differ: %v", rep.Rows)
	}
}

func TestE14HotPathAllocs(t *testing.T) {
	rep := runExp(t, E14HotPathAllocs)
	if len(rep.Measurements) < 6 {
		t.Fatalf("measurements: %d, want >= 6", len(rep.Measurements))
	}
	// The experiment itself fails when a small-shape kernel allocates;
	// here just check the wide fallback really is the allocating
	// baseline so the before/after story holds.
	for _, m := range rep.Measurements {
		if m.Name == "adm_compare_object_wide" && m.Value <= 0 {
			t.Errorf("wide compare should allocate (it is the legacy path), got %v", m.Value)
		}
	}
}
