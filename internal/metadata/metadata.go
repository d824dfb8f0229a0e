// Package metadata implements the catalog: named types, datasets (native
// and external), and secondary indexes, persisted as a JSON document in
// the data directory (the metadata-node role of Figure 1).
package metadata

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"asterix/internal/adm"
)

// TypeDef is a persisted named object type.
type TypeDef struct {
	Name   string     `json:"name"`
	Closed bool       `json:"closed"`
	Fields []FieldDef `json:"fields"`
}

// FieldDef is one declared field.
type FieldDef struct {
	Name     string  `json:"name"`
	Type     TypeRef `json:"type"`
	Optional bool    `json:"optional,omitempty"`
}

// TypeRef names a type structurally: exactly one member set.
type TypeRef struct {
	Named    string   `json:"named,omitempty"`
	Array    *TypeRef `json:"array,omitempty"`
	Multiset *TypeRef `json:"multiset,omitempty"`
}

// DatasetDef is a persisted dataset definition. Incarnation tells datasets
// of one name apart: each CREATE draws a fresh one from the catalog's
// counter, and the WAL names a dataset by it.
type DatasetDef struct {
	Name        string            `json:"name"`
	Incarnation int64             `json:"incarnation,omitempty"`
	TypeName    string            `json:"type"`
	PrimaryKey  []string          `json:"primaryKey,omitempty"`
	Partitions  int               `json:"partitions"`
	External    bool              `json:"external,omitempty"`
	Adapter     string            `json:"adapter,omitempty"`
	Params      map[string]string `json:"params,omitempty"`
}

// IndexDef is a persisted secondary-index definition.
type IndexDef struct {
	Name    string   `json:"name"`
	Dataset string   `json:"dataset"`
	Fields  []string `json:"fields"`
	Kind    string   `json:"kind"` // BTREE, RTREE, KEYWORD, ZORDER, HILBERT, GRID
}

// Catalog is the in-memory catalog with JSON persistence. All methods are
// safe for concurrent use.
type Catalog struct {
	mu       sync.RWMutex
	path     string
	Types    map[string]*TypeDef
	Datasets map[string]*DatasetDef
	Indexes  map[string]*IndexDef // key: dataset "." index name
	// incarnations is the last incarnation handed out.
	incarnations int64
}

// StorageFormat is the version of everything a data directory stores: the
// catalog, the WAL, the B+tree page layout, and the key and record bytes of
// every component. A change to any of them bumps it; no reader of an older
// form is kept. Format 2 ends every B+tree page in restart points. Format 3
// prefix-compresses B+tree keys between restart points, and stores a live
// key-only LSM entry without its flag byte.
const StorageFormat = 3

// ErrStorageFormat refuses a data directory written in another storage
// format than this build's.
var ErrStorageFormat = errors.New("data directory of another storage format")

// Open loads (or initializes) the catalog at dir/metadata.json. It writes
// nothing to a catalog it finds, and refuses one of another StorageFormat.
func Open(dir string) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Catalog{
		path:     filepath.Join(dir, "metadata.json"),
		Types:    map[string]*TypeDef{},
		Datasets: map[string]*DatasetDef{},
		Indexes:  map[string]*IndexDef{},
	}
	data, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("metadata: %w", err)
	}
	var snap catalogSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("metadata: corrupt catalog: %w", err)
	}
	if snap.Format != StorageFormat {
		return nil, fmt.Errorf("metadata: %w: %s is format %d, this build reads format %d", ErrStorageFormat, dir, snap.Format, StorageFormat)
	}
	for _, t := range snap.Types {
		c.Types[t.Name] = t
	}
	for _, d := range snap.Datasets {
		c.Datasets[d.Name] = d
	}
	for _, i := range snap.Indexes {
		c.Indexes[i.Dataset+"."+i.Name] = i
	}
	c.incarnations = snap.Incarnations
	return c, nil
}

// catalogSnapshot is the catalog as metadata.json holds it. A catalog
// without a format is of format 0.
type catalogSnapshot struct {
	Format       int           `json:"format"`
	Types        []*TypeDef    `json:"types"`
	Datasets     []*DatasetDef `json:"datasets"`
	Indexes      []*IndexDef   `json:"indexes"`
	Incarnations int64         `json:"incarnations,omitempty"`
}

// change applies a change to the catalog and saves it; when the save fails,
// the catalog is left as it was before the change (caller holds mu).
func (c *Catalog) change(apply func()) error {
	types, datasets, indexes, incarnations := maps.Clone(c.Types), maps.Clone(c.Datasets), maps.Clone(c.Indexes), c.incarnations
	apply()
	if err := c.save(); err != nil {
		c.Types, c.Datasets, c.Indexes, c.incarnations = types, datasets, indexes, incarnations
		return err
	}
	return nil
}

// save persists the catalog (caller holds mu).
func (c *Catalog) save() error {
	snap := catalogSnapshot{Format: StorageFormat, Incarnations: c.incarnations}
	for _, t := range c.Types {
		snap.Types = append(snap.Types, t)
	}
	for _, d := range c.Datasets {
		snap.Datasets = append(snap.Datasets, d)
	}
	for _, i := range c.Indexes {
		snap.Indexes = append(snap.Indexes, i)
	}
	sort.Slice(snap.Types, func(i, j int) bool { return snap.Types[i].Name < snap.Types[j].Name })
	sort.Slice(snap.Datasets, func(i, j int) bool { return snap.Datasets[i].Name < snap.Datasets[j].Name })
	sort.Slice(snap.Indexes, func(i, j int) bool {
		return snap.Indexes[i].Dataset+snap.Indexes[i].Name < snap.Indexes[j].Dataset+snap.Indexes[j].Name
	})
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// AddType registers a named type.
func (c *Catalog) AddType(t *TypeDef, ifNotExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.Types[t.Name]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("metadata: type %q already exists", t.Name)
	}
	return c.change(func() { c.Types[t.Name] = t })
}

// AddDataset registers a dataset.
func (c *Catalog) AddDataset(d *DatasetDef, ifNotExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.Datasets[d.Name]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("metadata: dataset %q already exists", d.Name)
	}
	if !d.External {
		if _, ok := c.Types[d.TypeName]; !ok && d.TypeName != "" {
			return fmt.Errorf("metadata: unknown type %q", d.TypeName)
		}
	}
	return c.change(func() {
		c.incarnations++
		d.Incarnation = c.incarnations
		c.Datasets[d.Name] = d
	})
}

// AddIndex registers a secondary index.
func (c *Catalog) AddIndex(i *IndexDef, ifNotExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := i.Dataset + "." + i.Name
	if _, ok := c.Indexes[key]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("metadata: index %q on %q already exists", i.Name, i.Dataset)
	}
	ds, ok := c.Datasets[i.Dataset]
	if !ok {
		return fmt.Errorf("metadata: unknown dataset %q", i.Dataset)
	}
	if ds.External {
		return fmt.Errorf("metadata: cannot index external dataset %q", i.Dataset)
	}
	return c.change(func() { c.Indexes[key] = i })
}

// DropDataset removes a dataset and its indexes.
func (c *Catalog) DropDataset(name string, ifExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.Datasets[name]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("metadata: unknown dataset %q", name)
	}
	return c.change(func() {
		delete(c.Datasets, name)
		maps.DeleteFunc(c.Indexes, func(_ string, i *IndexDef) bool { return i.Dataset == name })
	})
}

// DropType removes a named type.
func (c *Catalog) DropType(name string, ifExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.Types[name]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("metadata: unknown type %q", name)
	}
	for _, d := range c.Datasets {
		if d.TypeName == name {
			return fmt.Errorf("metadata: type %q is in use by dataset %q", name, d.Name)
		}
	}
	// Stored records hold values of a nested object type by position: a type
	// re-created under the name would read them as other fields.
	for _, t := range c.Types {
		for _, f := range t.Fields {
			r := f.Type
			for r.Array != nil || r.Multiset != nil { // a collection's element, at any depth
				r = *cmp.Or(r.Array, r.Multiset)
			}
			if t.Name != name && r.Named == name {
				return fmt.Errorf("metadata: type %q is in use by type %q", name, t.Name)
			}
		}
	}
	return c.change(func() { delete(c.Types, name) })
}

// DropIndex removes an index.
func (c *Catalog) DropIndex(dataset, name string, ifExists bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := dataset + "." + name
	if _, ok := c.Indexes[key]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("metadata: unknown index %q on %q", name, dataset)
	}
	return c.change(func() { delete(c.Indexes, key) })
}

// Dataset looks up a dataset.
func (c *Catalog) Dataset(name string) (*DatasetDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.Datasets[name]
	return d, ok
}

// Type looks up a named type.
func (c *Catalog) Type(name string) (*TypeDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.Types[name]
	return t, ok
}

// IndexesOf returns the indexes on a dataset (sorted by name).
func (c *Catalog) IndexesOf(dataset string) []*IndexDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*IndexDef
	for _, i := range c.Indexes {
		if i.Dataset == dataset {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResolveType materializes a named type (or primitive) into an adm.Type,
// following named references recursively. Unknown names error; depth is
// bounded to defend against recursive definitions.
func (c *Catalog) ResolveType(name string) (*adm.Type, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.resolveRef(TypeRef{Named: name}, 0)
}

var primitives = map[string]adm.Kind{
	"boolean": adm.KindBoolean,
	"int8":    adm.KindInt64, "int16": adm.KindInt64, "int32": adm.KindInt64,
	"int64": adm.KindInt64, "int": adm.KindInt64, "bigint": adm.KindInt64,
	"float": adm.KindDouble, "double": adm.KindDouble,
	"string": adm.KindString, "date": adm.KindDate, "time": adm.KindTime,
	"datetime": adm.KindDatetime, "duration": adm.KindDuration,
	"point": adm.KindPoint, "rectangle": adm.KindRectangle,
	"uuid": adm.KindUUID, "binary": adm.KindBinary,
}

func (c *Catalog) resolveRef(ref TypeRef, depth int) (*adm.Type, error) {
	if depth > 32 {
		return nil, fmt.Errorf("metadata: type nesting too deep (recursive type?)")
	}
	switch {
	case ref.Array != nil:
		elem, err := c.resolveRef(*ref.Array, depth+1)
		if err != nil {
			return nil, err
		}
		return adm.NewArrayType(elem), nil
	case ref.Multiset != nil:
		elem, err := c.resolveRef(*ref.Multiset, depth+1)
		if err != nil {
			return nil, err
		}
		return adm.NewMultisetType(elem), nil
	case ref.Named != "":
		if ref.Named == "any" {
			return adm.AnyType, nil
		}
		if k, ok := primitives[ref.Named]; ok {
			return adm.Primitive(k), nil
		}
		td, ok := c.Types[ref.Named]
		if !ok {
			return nil, fmt.Errorf("metadata: unknown type %q", ref.Named)
		}
		var fields []adm.FieldType
		for _, f := range td.Fields {
			ft, err := c.resolveRef(f.Type, depth+1)
			if err != nil {
				return nil, err
			}
			fields = append(fields, adm.FieldType{Name: f.Name, Type: ft, Optional: f.Optional})
		}
		return adm.NewObjectType(td.Name, td.Closed, fields...), nil
	}
	return adm.AnyType, nil
}
