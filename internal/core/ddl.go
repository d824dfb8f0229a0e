package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"asterix/internal/metadata"
	"asterix/internal/sqlpp"
)

// typeRefFrom converts a parsed type expression to a metadata TypeRef,
// registering anonymous inline object types under a derived name.
func (e *Engine) typeRefFrom(t sqlpp.TypeExpr, owner string, n *int) (metadata.TypeRef, error) {
	switch {
	case t.Named != "":
		return metadata.TypeRef{Named: t.Named}, nil
	case t.Array != nil:
		inner, err := e.typeRefFrom(*t.Array, owner, n)
		if err != nil {
			return metadata.TypeRef{}, err
		}
		return metadata.TypeRef{Array: &inner}, nil
	case t.Multiset != nil:
		inner, err := e.typeRefFrom(*t.Multiset, owner, n)
		if err != nil {
			return metadata.TypeRef{}, err
		}
		return metadata.TypeRef{Multiset: &inner}, nil
	case t.Object != nil:
		*n++
		name := fmt.Sprintf("%s$anon%d", owner, *n)
		td, err := e.typeDefFrom(name, *t.Object)
		if err != nil {
			return metadata.TypeRef{}, err
		}
		if err := e.catalog.AddType(td, false); err != nil {
			return metadata.TypeRef{}, err
		}
		return metadata.TypeRef{Named: name}, nil
	}
	return metadata.TypeRef{Named: "any"}, nil
}

func (e *Engine) typeDefFrom(name string, body sqlpp.ObjectTypeExpr) (*metadata.TypeDef, error) {
	td := &metadata.TypeDef{Name: name, Closed: body.Closed}
	anon := 0
	for _, f := range body.Fields {
		ref, err := e.typeRefFrom(f.Type, name, &anon)
		if err != nil {
			return nil, err
		}
		td.Fields = append(td.Fields, metadata.FieldDef{Name: f.Name, Type: ref, Optional: f.Optional})
	}
	return td, nil
}

func (e *Engine) execCreateType(s *sqlpp.CreateType) (Result, error) {
	td, err := e.typeDefFrom(s.Name, s.Body)
	if err != nil {
		return Result{}, err
	}
	if err := e.catalog.AddType(td, s.IfNotExists); err != nil {
		return Result{}, err
	}
	// Validate that all referenced types resolve.
	if _, err := e.catalog.ResolveType(s.Name); err != nil {
		e.catalog.DropType(s.Name, true)
		return Result{}, err
	}
	return Result{Kind: ResultDDL}, nil
}

func (e *Engine) execCreateDataset(s *sqlpp.CreateDataset) (Result, error) {
	if len(s.PrimaryKey) == 0 {
		return Result{}, fmt.Errorf("core: dataset %s requires a primary key", s.Name)
	}
	def := &metadata.DatasetDef{
		Name:       s.Name,
		TypeName:   s.TypeName,
		PrimaryKey: s.PrimaryKey,
		Partitions: e.cfg.Partitions,
	}
	if _, err := e.catalog.ResolveType(s.TypeName); err != nil {
		return Result{}, err
	}
	if err := e.catalog.AddDataset(def, s.IfNotExists); err != nil {
		return Result{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, open := e.datasets[s.Name]; open {
		return Result{Kind: ResultDDL}, nil // IF NOT EXISTS hit
	}
	d, err := e.openDataset(def)
	if err != nil {
		return Result{}, err
	}
	e.datasets[s.Name] = d
	return Result{Kind: ResultDDL}, nil
}

func (e *Engine) execCreateExternalDataset(s *sqlpp.CreateExternalDataset) (Result, error) {
	def := &metadata.DatasetDef{
		Name:       s.Name,
		TypeName:   s.TypeName,
		Partitions: e.cfg.Partitions,
		External:   true,
		Adapter:    s.Adapter,
		Params:     make(map[string]string, len(s.Params)),
	}
	for k, v := range s.Params { // a literal shares the statement's text
		def.Params[strings.Clone(k)] = strings.Clone(v)
	}
	if _, err := e.catalog.ResolveType(s.TypeName); err != nil {
		return Result{}, err
	}
	if err := e.catalog.AddDataset(def, s.IfNotExists); err != nil {
		return Result{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	d, err := e.openDataset(def)
	if err != nil {
		return Result{}, err
	}
	e.datasets[s.Name] = d
	return Result{Kind: ResultDDL}, nil
}

func (e *Engine) execCreateIndex(s *sqlpp.CreateIndex) (Result, error) {
	switch s.Kind {
	case "BTREE", "RTREE", "KEYWORD", "ZORDER", "HILBERT", "GRID":
	default:
		return Result{}, fmt.Errorf("core: unknown index type %q", s.Kind)
	}
	if len(s.Fields) != 1 {
		return Result{}, fmt.Errorf("core: composite secondary indexes are not supported (index %s)", s.Name)
	}
	idef := &metadata.IndexDef{Name: s.Name, Dataset: s.Dataset, Fields: s.Fields, Kind: s.Kind}
	if err := e.catalog.AddIndex(idef, s.IfNotExists); err != nil {
		return Result{}, err
	}
	e.mu.Lock()
	d, ok := e.datasets[s.Dataset]
	e.mu.Unlock()
	if !ok {
		return Result{}, fmt.Errorf("core: dataset %q not open", s.Dataset)
	}
	if _, exists := d.findIndex(s.Name); exists {
		return Result{Kind: ResultDDL}, nil
	}
	// Build from existing data before publishing the index; a failed
	// build leaves neither a catalog entry nor a governor account behind.
	si, err := d.openIndex(idef)
	if err == nil {
		if err = d.buildIndex(si); err != nil {
			err = errors.Join(err, dropAll(si.all))
		}
	}
	if err != nil {
		return Result{}, errors.Join(err, e.catalog.DropIndex(s.Dataset, s.Name, true))
	}
	e.mu.Lock()
	d.addIndex(si)
	e.mu.Unlock()
	return Result{Kind: ResultDDL}, nil
}

func (e *Engine) execDrop(s *sqlpp.DropStmt) (Result, error) {
	switch s.What {
	case "DATASET":
		e.mu.Lock()
		d := e.datasets[s.Name]
		e.mu.Unlock()
		// Storage goes first: a crash before the catalog follows leaves an
		// empty dataset, never records for a later dataset of this name —
		// and another type — to read.
		if d != nil {
			if err := dropAll(d.lsmIndexes()); err != nil {
				return Result{}, err
			}
		}
		if err := e.catalog.DropDataset(s.Name, s.IfExists); err != nil {
			return Result{}, err
		}
		e.mu.Lock()
		delete(e.datasets, s.Name)
		e.mu.Unlock()
		return Result{Kind: ResultDDL}, nil
	case "TYPE":
		if err := e.catalog.DropType(s.Name, s.IfExists); err != nil {
			return Result{}, err
		}
		return Result{Kind: ResultDDL}, nil
	case "INDEX":
		if err := e.catalog.DropIndex(s.On, s.Name, s.IfExists); err != nil {
			return Result{}, err
		}
		e.mu.Lock()
		var dropped *SecondaryIndex
		if d, ok := e.datasets[s.On]; ok {
			if i, ok := d.findIndex(s.Name); ok {
				dropped = d.idxs[i]
				d.idxs = slices.Delete(slices.Clone(d.idxs), i, i+1)
			}
		}
		e.mu.Unlock()
		if dropped != nil {
			return Result{Kind: ResultDDL}, dropAll(dropped.all)
		}
		return Result{Kind: ResultDDL}, nil
	case "DATAVERSE":
		return Result{Kind: ResultDDL}, nil
	}
	return Result{}, fmt.Errorf("core: unsupported DROP %s", s.What)
}
