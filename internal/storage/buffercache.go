package storage

import (
	"fmt"
	"sync"
)

// Page is a pinned buffer-cache frame. The caller may read Data freely and
// write it only if it will Unpin with dirty=true.
type Page struct {
	ID   PageID
	Data []byte

	frame int // index in the cache's frame table
}

// Stats counts buffer-cache activity. Reads/Writes are physical I/Os; a
// high hit ratio is the point of Figure 2's buffer cache.
type Stats struct {
	Hits   int64
	Misses int64
	Reads  int64
	Writes int64
}

// HitRatio returns hits / (hits+misses), or 0 with no traffic.
func (s Stats) HitRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

type frame struct {
	page  Page
	valid bool
	dirty bool
	pins  int
	ref   bool // CLOCK reference bit
}

// BufferCache is a fixed-size page cache over a FileManager, with pin/unpin
// semantics and CLOCK (second-chance) eviction. It is safe for concurrent
// use.
type BufferCache struct {
	fm *FileManager

	mu     sync.Mutex
	frames []frame
	table  map[PageID]int
	hand   int
	stats  Stats
}

// NewBufferCache creates a cache of numFrames pages over fm.
func NewBufferCache(fm *FileManager, numFrames int) *BufferCache {
	if numFrames < 1 {
		numFrames = 1
	}
	bc := &BufferCache{
		fm:     fm,
		frames: make([]frame, numFrames),
		table:  make(map[PageID]int, numFrames),
	}
	for i := range bc.frames {
		bc.frames[i].page.Data = make([]byte, fm.PageSize())
		bc.frames[i].page.frame = i
	}
	return bc
}

// FileManager returns the underlying file manager.
func (bc *BufferCache) FileManager() *FileManager { return bc.fm }

// CapacityBytes returns the cache's fixed memory footprint (frames ×
// page size) — the buffer-cache slice of the Figure 2 budget that the
// memory governor reports as permanently reserved.
func (bc *BufferCache) CapacityBytes() int64 {
	return int64(len(bc.frames)) * int64(bc.fm.PageSize())
}

// Pin fetches the page into the cache (reading it if absent) and pins it.
func (bc *BufferCache) Pin(pid PageID) (*Page, error) {
	bc.mu.Lock()
	if i, ok := bc.table[pid]; ok {
		f := &bc.frames[i]
		f.pins++
		f.ref = true
		bc.stats.Hits++
		p := &f.page
		bc.mu.Unlock()
		return p, nil
	}
	bc.stats.Misses++
	i, err := bc.evictLocked()
	if err != nil {
		bc.mu.Unlock()
		return nil, err
	}
	f := &bc.frames[i]
	f.page.ID = pid
	f.valid = true
	f.dirty = false
	f.pins = 1
	f.ref = true
	bc.table[pid] = i
	bc.stats.Reads++
	// Read outside the lock would need per-frame latching; at this
	// system's scale a short critical section is the simpler invariant.
	if err := bc.fm.ReadPage(pid.File, pid.Num, f.page.Data); err != nil {
		f.valid = false
		f.pins = 0
		delete(bc.table, pid)
		bc.mu.Unlock()
		return nil, err
	}
	p := &f.page
	bc.mu.Unlock()
	return p, nil
}

// NewPage allocates a fresh page at the end of the file and returns it
// pinned and zeroed (counted as a logical write, not a read).
func (bc *BufferCache) NewPage(file FileID) (*Page, error) {
	num, err := bc.fm.Allocate(file)
	if err != nil {
		return nil, err
	}
	pid := PageID{File: file, Num: num}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	i, err := bc.evictLocked()
	if err != nil {
		return nil, err
	}
	f := &bc.frames[i]
	f.page.ID = pid
	for j := range f.page.Data {
		f.page.Data[j] = 0
	}
	f.valid = true
	f.dirty = true
	f.pins = 1
	f.ref = true
	bc.table[pid] = i
	return &f.page, nil
}

// Unpin releases a pin; dirty marks the page modified.
func (bc *BufferCache) Unpin(p *Page, dirty bool) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	f := &bc.frames[p.frame]
	if !f.valid || f.page.ID != p.ID {
		panic(fmt.Sprintf("storage: unpin of unowned page %v", p.ID))
	}
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: double unpin of page %v", p.ID))
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// evictLocked finds a free or evictable frame using the CLOCK policy,
// writing back a dirty victim. Caller holds bc.mu.
func (bc *BufferCache) evictLocked() (int, error) {
	n := len(bc.frames)
	for pass := 0; pass < 2*n+1; pass++ {
		i := bc.hand
		bc.hand = (bc.hand + 1) % n
		f := &bc.frames[i]
		if !f.valid {
			return i, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false // second chance
			continue
		}
		if f.dirty {
			bc.stats.Writes++
			if err := bc.fm.WritePage(f.page.ID.File, f.page.ID.Num, f.page.Data); err != nil {
				return 0, err
			}
		}
		delete(bc.table, f.page.ID)
		f.valid = false
		return i, nil
	}
	return 0, fmt.Errorf("storage: buffer cache exhausted (all %d frames pinned)", n)
}

// FlushFile writes back all dirty cached pages of the file.
func (bc *BufferCache) FlushFile(file FileID) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for i := range bc.frames {
		f := &bc.frames[i]
		if f.valid && f.dirty && f.page.ID.File == file {
			bc.stats.Writes++
			if err := bc.fm.WritePage(f.page.ID.File, f.page.ID.Num, f.page.Data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// FlushAll writes back every dirty page.
func (bc *BufferCache) FlushAll() error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for i := range bc.frames {
		f := &bc.frames[i]
		if f.valid && f.dirty {
			bc.stats.Writes++
			if err := bc.fm.WritePage(f.page.ID.File, f.page.ID.Num, f.page.Data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// Evict drops all cached pages of the file (flushing dirty ones). Used
// when a file is deleted after an LSM merge.
func (bc *BufferCache) Evict(file FileID) error {
	if err := bc.FlushFile(file); err != nil {
		return err
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for i := range bc.frames {
		f := &bc.frames[i]
		if f.valid && f.page.ID.File == file {
			if f.pins > 0 {
				return fmt.Errorf("storage: evicting pinned page %v", f.page.ID)
			}
			delete(bc.table, f.page.ID)
			f.valid = false
		}
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (bc *BufferCache) Stats() Stats {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.stats
}

// ResetStats zeroes the counters (benchmark harness support). Safe to
// call concurrently with running jobs: counters are guarded by the cache
// mutex, so a concurrent reset only discards updates that happened-before
// it, never tears a snapshot.
func (bc *BufferCache) ResetStats() {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	bc.stats = Stats{}
}
