package metadata

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asterix/internal/adm"
)

func newCat(t *testing.T) (*Catalog, string) {
	t.Helper()
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c, dir
}

func employmentType() *TypeDef {
	return &TypeDef{Name: "EmploymentType", Fields: []FieldDef{
		{Name: "organizationName", Type: TypeRef{Named: "string"}},
		{Name: "startDate", Type: TypeRef{Named: "date"}},
		{Name: "endDate", Type: TypeRef{Named: "date"}, Optional: true},
	}}
}

func userType() *TypeDef {
	return &TypeDef{Name: "UserType", Fields: []FieldDef{
		{Name: "id", Type: TypeRef{Named: "int64"}},
		{Name: "friendIds", Type: TypeRef{Multiset: &TypeRef{Named: "int64"}}},
		{Name: "employment", Type: TypeRef{Array: &TypeRef{Named: "EmploymentType"}}},
	}}
}

func TestAddAndResolveTypes(t *testing.T) {
	c, _ := newCat(t)
	if err := c.AddType(employmentType(), false); err != nil {
		t.Fatal(err)
	}
	if err := c.AddType(userType(), false); err != nil {
		t.Fatal(err)
	}
	ty, err := c.ResolveType("UserType")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Tag != adm.TagObject || len(ty.Fields) != 3 {
		t.Fatalf("resolved: %s", ty)
	}
	emp, _ := ty.Field("employment")
	if emp.Type.Tag != adm.TagArray || emp.Type.Elem.Name != "EmploymentType" {
		t.Errorf("employment: %s", emp.Type)
	}
	// Duplicate registration.
	if err := c.AddType(userType(), false); err == nil {
		t.Error("duplicate type must fail")
	}
	if err := c.AddType(userType(), true); err != nil {
		t.Errorf("IF NOT EXISTS should be quiet: %v", err)
	}
	// Unknown reference.
	if _, err := c.ResolveType("Nope"); err == nil {
		t.Error("unknown type must fail")
	}
	// Primitives resolve directly.
	p, err := c.ResolveType("string")
	if err != nil || p.Prim != adm.KindString {
		t.Errorf("primitive: %v %v", p, err)
	}
}

func TestDatasetsAndIndexes(t *testing.T) {
	c, _ := newCat(t)
	c.AddType(employmentType(), false)
	c.AddType(userType(), false)
	ds := &DatasetDef{Name: "Users", TypeName: "UserType", PrimaryKey: []string{"id"}, Partitions: 2}
	if err := c.AddDataset(ds, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(ds, false); err == nil {
		t.Error("duplicate dataset must fail")
	}
	if err := c.AddDataset(&DatasetDef{Name: "Bad", TypeName: "Nope"}, false); err == nil {
		t.Error("dataset with unknown type must fail")
	}
	if err := c.AddIndex(&IndexDef{Name: "idx", Dataset: "Users", Fields: []string{"id"}, Kind: "BTREE"}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&IndexDef{Name: "idx", Dataset: "Users", Fields: []string{"id"}, Kind: "BTREE"}, false); err == nil {
		t.Error("duplicate index must fail")
	}
	if err := c.AddIndex(&IndexDef{Name: "x", Dataset: "NoDS", Fields: []string{"a"}, Kind: "BTREE"}, false); err == nil {
		t.Error("index on unknown dataset must fail")
	}
	if got := c.IndexesOf("Users"); len(got) != 1 || got[0].Name != "idx" {
		t.Errorf("IndexesOf: %v", got)
	}
	// Type in use cannot be dropped.
	if err := c.DropType("UserType", false); err == nil {
		t.Error("dropping in-use type must fail")
	}
	// Dropping the dataset removes its indexes.
	if err := c.DropDataset("Users", false); err != nil {
		t.Fatal(err)
	}
	if got := c.IndexesOf("Users"); len(got) != 0 {
		t.Errorf("indexes survived dataset drop: %v", got)
	}
	if err := c.DropDataset("Users", false); err == nil {
		t.Error("double drop must fail")
	}
	if err := c.DropDataset("Users", true); err != nil {
		t.Errorf("IF EXISTS drop should be quiet: %v", err)
	}
	if err := c.DropType("UserType", false); err != nil {
		t.Errorf("type now unused: %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	c, dir := newCat(t)
	c.AddType(employmentType(), false)
	c.AddType(userType(), false)
	c.AddDataset(&DatasetDef{Name: "Users", TypeName: "UserType", PrimaryKey: []string{"id"}, Partitions: 4}, false)
	c.AddIndex(&IndexDef{Name: "idx", Dataset: "Users", Fields: []string{"id"}, Kind: "BTREE"}, false)

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, ok := c2.Dataset("Users")
	if !ok || ds.Partitions != 4 || ds.PrimaryKey[0] != "id" {
		t.Fatalf("dataset lost: %+v", ds)
	}
	if _, err := c2.ResolveType("UserType"); err != nil {
		t.Fatal(err)
	}
	if got := c2.IndexesOf("Users"); len(got) != 1 {
		t.Fatalf("index lost: %v", got)
	}
}

func TestExternalDatasetRules(t *testing.T) {
	c, _ := newCat(t)
	c.AddType(employmentType(), false)
	ext := &DatasetDef{Name: "Log", TypeName: "EmploymentType", External: true,
		Adapter: "localfs", Params: map[string]string{"path": "/x"}, Partitions: 2}
	if err := c.AddDataset(ext, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&IndexDef{Name: "i", Dataset: "Log", Fields: []string{"a"}, Kind: "BTREE"}, false); err == nil {
		t.Error("indexing an external dataset must fail")
	}
}

func TestRecursiveTypeBounded(t *testing.T) {
	c, _ := newCat(t)
	c.AddType(&TypeDef{Name: "Loop", Fields: []FieldDef{
		{Name: "next", Type: TypeRef{Named: "Loop"}},
	}}, false)
	if _, err := c.ResolveType("Loop"); err == nil {
		t.Error("recursive type must be rejected, not loop forever")
	}
}

// A type another type uses — in a field, or as the element of a collection
// at any depth — cannot be dropped: records store values of it by position.
func TestDropTypeRefusesNestedUse(t *testing.T) {
	c, _ := newCat(t)
	c.AddType(employmentType(), false)
	c.AddType(userType(), false)
	c.AddType(&TypeDef{Name: "Deep", Fields: []FieldDef{
		{Name: "jobs", Type: TypeRef{Multiset: &TypeRef{Array: &TypeRef{Named: "UserType"}}}},
	}}, false)
	for _, name := range []string{"EmploymentType", "UserType"} {
		if err := c.DropType(name, false); err == nil || !strings.Contains(err.Error(), "in use by type") {
			t.Errorf("DropType(%s) = %v, want in use by type", name, err)
		}
	}
	for _, name := range []string{"Deep", "UserType", "EmploymentType"} {
		if err := c.DropType(name, false); err != nil {
			t.Errorf("DropType(%s) once nothing uses it: %v", name, err)
		}
	}
}

// Every CREATE of a dataset draws a new incarnation, never one handed out
// before — not across a drop, not across a reopen — and a catalog written
// without incarnations gets them, persisted, when it is opened. Every CREATE
// records exact keys, whatever the caller asked; a dataset of a catalog
// written without key formats keeps float keys through opens and saves.
func TestDatasetIncarnations(t *testing.T) {
	c, dir := newCat(t)
	c.AddType(employmentType(), false)
	seen := map[int64]bool{}
	create := func(c *Catalog, name string) int64 {
		t.Helper()
		d := &DatasetDef{Name: name, TypeName: "EmploymentType", PrimaryKey: []string{"organizationName"}, Partitions: 1, KeyFormat: adm.FloatKeys}
		if err := c.AddDataset(d, false); err != nil {
			t.Fatal(err)
		}
		if d.Incarnation <= 0 || seen[d.Incarnation] || d.KeyFormat != adm.ExactKeys {
			t.Fatalf("%s: incarnation %d, handed out before: %v; key format %d", name, d.Incarnation, seen, d.KeyFormat)
		}
		seen[d.Incarnation] = true
		return d.Incarnation
	}
	create(c, "A")
	create(c, "B")
	c.DropDataset("A", false)
	create(c, "A")
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := c2.Dataset("A"); !seen[a.Incarnation] || a.KeyFormat != adm.ExactKeys {
		t.Fatalf("reopened A has incarnation %d, key format %d", a.Incarnation, a.KeyFormat)
	}
	c2.DropDataset("B", false)
	create(c2, "B")

	// The same catalog without incarnations and key formats.
	path := filepath.Join(dir, "metadata.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	delete(snap, "incarnations")
	for _, d := range snap["datasets"].([]any) {
		delete(d.(map[string]any), "incarnation")
		delete(d.(map[string]any), "keyFormat")
	}
	if data, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c3.Dataset("A")
	b, _ := c3.Dataset("B")
	if a.Incarnation <= 0 || b.Incarnation <= 0 || a.Incarnation == b.Incarnation {
		t.Fatalf("incarnations given on open: A %d, B %d", a.Incarnation, b.Incarnation)
	}
	c4, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a4, _ := c4.Dataset("A"); a4.Incarnation != a.Incarnation || a4.KeyFormat != adm.FloatKeys {
		t.Fatalf("incarnation given on open not persisted: %d, then %d; key format %d", a.Incarnation, a4.Incarnation, a4.KeyFormat)
	}
	if d := (&DatasetDef{Name: "C", TypeName: "EmploymentType", Partitions: 1}); c4.AddDataset(d, false) != nil || d.Incarnation == a.Incarnation || d.Incarnation == b.Incarnation || d.KeyFormat != adm.ExactKeys {
		t.Fatalf("new dataset after open: incarnation %d, key format %d", d.Incarnation, d.KeyFormat)
	}
	if c5, err := Open(dir); err != nil {
		t.Fatal(err)
	} else if a5, _ := c5.Dataset("A"); a5.KeyFormat != adm.FloatKeys {
		t.Fatalf("A has key format %d after a save", a5.KeyFormat)
	}
}
