package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	locks map[*ast.BlockStmt]*lockFlow // the held-lock pass, per body (locks.go)
}

// Loader parses and type-checks module packages from source, resolving
// stdlib imports through the go/importer source importer so the analyzer
// needs nothing outside the standard library.
type Loader struct {
	ModRoot string
	ModPath string

	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*Package
	checking map[string]bool
}

// NewLoader locates the enclosing module (go.mod upward from dir).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "module ") {
			modPath = strings.TrimSpace(strings.TrimPrefix(line, "module "))
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot:  root,
		ModPath:  modPath,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}, nil
}

// Fset returns the loader's shared FileSet: positions from every
// package it loads resolve through this one set, which is what lets
// cross-package rules carry token.Pos values between packages.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// dirForPath maps a module import path to its directory.
func (l *Loader) dirForPath(path string) string {
	if path == l.ModPath {
		return l.ModRoot
	}
	return filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
}

// pathForDir maps a directory to its module import path.
func (l *Loader) pathForDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.ModRoot)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir loads the package in dir (non-test files only).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.pathForDir(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path)
}

func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir := l.dirForPath(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Respect build constraints so mutually-exclusive tag variants (e.g.
	// the invariants on/off pair) don't both land in one package.
	bctx := build.Default
	bctx.Dir = dir
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := bctx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go source files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer: module packages load from source here,
// everything else goes to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// ExpandPatterns resolves go-style package patterns ("./...", "./internal/lsm")
// into package directories, skipping testdata, hidden and VCS trees, and
// nested modules.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if strings.HasSuffix(pat, "...") {
			root := strings.TrimSuffix(pat, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" || root == "." {
				root = l.ModRoot
			}
			err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
				if err != nil {
					return err
				}
				if fi.IsDir() {
					name := fi.Name()
					if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
						return filepath.SkipDir
					}
					// Like the go tool, "..." stops at a nested module
					// (benchmark/ has its own go.mod and import root).
					if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
						return filepath.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(fi.Name(), ".go") && !strings.HasSuffix(fi.Name(), "_test.go") {
					add(filepath.Dir(path))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			add(pat)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
