package metadata

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// before — not across a drop, not across a reopen.
func TestDatasetIncarnations(t *testing.T) {
	c, dir := newCat(t)
	c.AddType(employmentType(), false)
	seen := map[int64]bool{}
	create := func(c *Catalog, name string) {
		t.Helper()
		d := &DatasetDef{Name: name, TypeName: "EmploymentType", PrimaryKey: []string{"organizationName"}, Partitions: 1}
		if err := c.AddDataset(d, false); err != nil {
			t.Fatal(err)
		}
		if d.Incarnation <= 0 || seen[d.Incarnation] {
			t.Fatalf("%s: incarnation %d, handed out before: %v", name, d.Incarnation, seen)
		}
		seen[d.Incarnation] = true
	}
	create(c, "A")
	create(c, "B")
	c.DropDataset("A", false)
	create(c, "A")
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := c2.Dataset("A"); !seen[a.Incarnation] {
		t.Fatalf("reopened A has incarnation %d", a.Incarnation)
	}
	c2.DropDataset("B", false)
	create(c2, "B")
}

// editCatalog rewrites the catalog at dir/metadata.json as edit leaves its
// JSON document.
func editCatalog(t *testing.T, dir string, edit func(cat map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "metadata.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cat map[string]any
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	edit(cat)
	if data, err = json.Marshal(cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A catalog records the storage format, and Open refuses one of another
// format — format 0, a catalog without the field, format 1, whose B+tree
// pages have no restart points, format 2, whose B+tree keys are stored
// whole, and a later one alike — with ErrStorageFormat naming both
// versions, and writes nothing.
func TestStorageFormatGate(t *testing.T) {
	c, dir := newCat(t)
	c.AddType(employmentType(), false)
	if err := c.AddDataset(&DatasetDef{Name: "A", TypeName: "EmploymentType", Partitions: 1}, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "metadata.json")
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Format *int }
	if err := json.Unmarshal(saved, &snap); err != nil || snap.Format == nil || *snap.Format != 3 {
		t.Fatalf("a new catalog saved format %v (%v), want 3", snap.Format, err)
	}
	if c2, err := Open(dir); err != nil {
		t.Fatalf("reopening a new catalog: %v", err)
	} else if a, ok := c2.Dataset("A"); !ok || a.Incarnation != 1 {
		t.Fatalf("reopened catalog has dataset A %v, %v", a, ok)
	}
	for _, c := range []struct {
		name, want string
		edit       func(cat map[string]any)
	}{
		{"format 0", "format 0", func(cat map[string]any) {
			delete(cat, "format")
			delete(cat, "incarnations")
			for _, d := range cat["datasets"].([]any) {
				delete(d.(map[string]any), "incarnation")
			}
		}},
		{"format 1", "format 1", func(cat map[string]any) { cat["format"] = 1 }},
		{"format 2", "format 2", func(cat map[string]any) { cat["format"] = 2 }},
		{"format 4", "format 4", func(cat map[string]any) { cat["format"] = 4 }},
	} {
		if err := os.WriteFile(path, saved, 0o644); err != nil {
			t.Fatal(err)
		}
		editCatalog(t, dir, c.edit)
		before, _ := os.ReadFile(path)
		_, err := Open(dir)
		if !errors.Is(err, ErrStorageFormat) || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "format 3") {
			t.Errorf("%s: Open = %v, want ErrStorageFormat naming %s and format 3", c.name, err, c.want)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Errorf("%s: the refused catalog was rewritten:\n%s", c.name, after)
		}
	}
}

// catalogState renders what a catalog answers for the names the failed-save
// test uses.
func catalogState(c *Catalog) string {
	var b strings.Builder
	for _, name := range []string{"EmploymentType", "UserType", "Spare", "Other"} {
		_, ok := c.Type(name)
		fmt.Fprintf(&b, "type %s %v; ", name, ok)
	}
	for _, name := range []string{"Users", "Other"} {
		d, ok := c.Dataset(name)
		fmt.Fprintf(&b, "dataset %s %v", name, ok)
		if ok {
			fmt.Fprintf(&b, " incarnation %d", d.Incarnation)
		}
		for _, i := range c.IndexesOf(name) {
			fmt.Fprintf(&b, " index %s", i.Name)
		}
		b.WriteString("; ")
	}
	return b.String()
}

// A change whose save fails returns the error and leaves the catalog as it
// was, incarnation counter included; the same change succeeds once the save
// can. The catalog on disk then answers as the one in memory.
func TestFailedSaveChangesNothing(t *testing.T) {
	c, dir := newCat(t)
	c.AddType(employmentType(), false)
	c.AddType(userType(), false)
	c.AddType(&TypeDef{Name: "Spare"}, false)
	c.AddDataset(&DatasetDef{Name: "Users", TypeName: "UserType", PrimaryKey: []string{"id"}, Partitions: 1}, false)
	c.AddIndex(&IndexDef{Name: "idx", Dataset: "Users", Fields: []string{"id"}, Kind: "BTREE"}, false)
	tmp := filepath.Join(dir, "metadata.json.tmp")
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"AddType", func() error { return c.AddType(&TypeDef{Name: "Other"}, false) }},
		{"AddDataset", func() error {
			return c.AddDataset(&DatasetDef{Name: "Other", TypeName: "Spare", PrimaryKey: []string{"id"}, Partitions: 1}, false)
		}},
		{"AddIndex", func() error {
			return c.AddIndex(&IndexDef{Name: "idx2", Dataset: "Users", Fields: []string{"friendIds"}, Kind: "BTREE"}, false)
		}},
		{"DropIndex", func() error { return c.DropIndex("Users", "idx", false) }},
		{"DropDataset", func() error { return c.DropDataset("Users", false) }},
		{"DropType", func() error { return c.DropType("Other", false) }},
	} {
		before := catalogState(c)
		if err := os.Mkdir(tmp, 0o755); err != nil { // the save cannot write its temporary file
			t.Fatal(err)
		}
		if err := step.run(); err == nil {
			t.Fatalf("%s succeeded with the save failing", step.name)
		}
		if after := catalogState(c); after != before {
			t.Errorf("%s failed and changed the catalog:\n before %s\n after  %s", step.name, before, after)
		}
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
		if err := step.run(); err != nil {
			t.Fatalf("%s once the save can: %v", step.name, err)
		}
		if catalogState(c) == before {
			t.Errorf("%s changed nothing", step.name)
		}
	}
	if d, _ := c.Dataset("Other"); d.Incarnation != 2 {
		t.Errorf("the dataset created after a failed CREATE has incarnation %d, want 2", d.Incarnation)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := catalogState(c2), catalogState(c); got != want {
		t.Errorf("reopened catalog:\n got  %s\n want %s", got, want)
	}
}
