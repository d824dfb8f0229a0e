// Package storage provides the lowest layer of the stack: page-structured
// files on one or more I/O devices and a pin/unpin buffer cache with CLOCK
// eviction. Every persistent index (B+tree, R-tree, linear hash, LSM disk
// components) performs its I/O through this package, so its statistics are
// the system's I/O ground truth (the substrate behind Figure 2 of the
// paper).
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"asterix/internal/fault"
)

// FileID identifies an open page file within a FileManager.
type FileID int32

// PageID names one page of one file.
type PageID struct {
	File FileID
	Num  int32
}

func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Num) }

// FileManager owns page-structured files under a root directory (one
// "I/O device"). All methods are safe for concurrent use.
type FileManager struct {
	mu       sync.Mutex
	root     string
	pageSize int
	files    map[FileID]*pageFile
	byName   map[string]FileID
	nextID   FileID
}

type pageFile struct {
	name  string
	f     *os.File
	pages int32
}

// NewFileManager creates a file manager rooted at dir, creating it if
// needed.
func NewFileManager(dir string, pageSize int) (*FileManager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: invalid page size %d", pageSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	return &FileManager{
		root:     dir,
		pageSize: pageSize,
		files:    make(map[FileID]*pageFile),
		byName:   make(map[string]FileID),
	}, nil
}

// PageSize returns the page size in bytes.
func (fm *FileManager) PageSize() int { return fm.pageSize }

// Root returns the root directory.
func (fm *FileManager) Root() string { return fm.root }

// Open opens (creating if absent) the named page file and returns its id.
// Names may contain '/' subdirectories.
func (fm *FileManager) Open(name string) (FileID, error) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if id, ok := fm.byName[name]; ok {
		return id, nil
	}
	path := filepath.Join(fm.root, filepath.FromSlash(name))
	//lint:ignore lock-held name->id assignment must be atomic with file creation; opens are rare and short
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("storage: open %s: %w", name, err)
	}
	//lint:ignore lock-held name->id assignment must be atomic with file creation; opens are rare and short
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, fmt.Errorf("storage: open %s: %w", name, err)
	}
	//lint:ignore lock-held name->id assignment must be atomic with file creation; opens are rare and short
	st, err := f.Stat()
	if err != nil {
		//lint:ignore lock-held error path of a rare open; the handle must not leak
		return 0, errors.Join(fmt.Errorf("storage: stat %s: %w", name, err), f.Close())
	}
	id := fm.nextID
	fm.nextID++
	fm.files[id] = &pageFile{name: name, f: f, pages: int32(st.Size() / int64(fm.pageSize))}
	fm.byName[name] = id
	return id, nil
}

// NumPages returns the number of allocated pages in the file.
func (fm *FileManager) NumPages(id FileID) (int32, error) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	pf, ok := fm.files[id]
	if !ok {
		return 0, fmt.Errorf("storage: unknown file %d", id)
	}
	return pf.pages, nil
}

// Allocate adds one page to the file and returns its number. It does no
// I/O: the file grows when the page is first written, and until then the
// page reads as zeros.
func (fm *FileManager) Allocate(id FileID) (int32, error) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	pf, ok := fm.files[id]
	if !ok {
		return 0, fmt.Errorf("storage: unknown file %d", id)
	}
	pf.pages++
	return pf.pages - 1, nil
}

// ReadPage reads page num of file id into buf (len must equal page size).
func (fm *FileManager) ReadPage(id FileID, num int32, buf []byte) error {
	fm.mu.Lock()
	pf, ok := fm.files[id]
	allocated := ok && num < pf.pages
	fm.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: unknown file %d", id)
	}
	n, err := pf.f.ReadAt(buf, int64(num)*int64(fm.pageSize))
	if err == io.EOF && allocated {
		clear(buf[n:]) // the file does not reach the end of the page yet
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read %s page %d: %w", pf.name, num, err)
	}
	return nil
}

// WritePage writes buf to page num of file id.
func (fm *FileManager) WritePage(id FileID, num int32, buf []byte) error {
	fm.mu.Lock()
	pf, ok := fm.files[id]
	fm.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: unknown file %d", id)
	}
	if err := fault.Hit(fault.PointPageWrite); err != nil {
		return fmt.Errorf("storage: write %s page %d: %w", pf.name, num, err)
	}
	if _, err := pf.f.WriteAt(buf, int64(num)*int64(fm.pageSize)); err != nil {
		return fmt.Errorf("storage: write %s page %d: %w", pf.name, num, err)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (fm *FileManager) Sync(id FileID) error {
	fm.mu.Lock()
	pf, ok := fm.files[id]
	fm.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: unknown file %d", id)
	}
	return pf.f.Sync()
}

// Delete closes and removes the named file.
func (fm *FileManager) Delete(name string) error {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	id, ok := fm.byName[name]
	var cerr error
	if ok {
		pf := fm.files[id]
		//lint:ignore lock-held table removal must be atomic with closing or a reader revives the dying handle
		cerr = pf.f.Close()
		delete(fm.files, id)
		delete(fm.byName, name)
	}
	path := filepath.Join(fm.root, filepath.FromSlash(name))
	//lint:ignore lock-held table removal must be atomic with the unlink; deletes are rare and short
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return errors.Join(fmt.Errorf("storage: delete %s: %w", name, err), cerr)
	}
	return cerr
}

// Name returns the name a file was opened under.
func (fm *FileManager) Name(id FileID) string {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if pf, ok := fm.files[id]; ok {
		return pf.name
	}
	return ""
}

// Close closes all open files.
func (fm *FileManager) Close() error {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	var firstErr error
	for _, pf := range fm.files {
		//lint:ignore lock-held shutdown path: the table is emptied atomically with closing the handles
		if err := pf.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	fm.files = make(map[FileID]*pageFile)
	fm.byName = make(map[string]FileID)
	return firstErr
}
