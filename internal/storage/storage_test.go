package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"asterix/internal/check"
)

// validateQuiescent runs the cache's deep accounting validator and
// asserts every pin has been released.
func validateQuiescent(t *testing.T, bc *BufferCache) {
	t.Helper()
	check.MustValidate(t, bc)
	if n := bc.Pinned(); n != 0 {
		t.Errorf("quiescent cache holds %d pins", n)
	}
}

func newFM(t *testing.T, pageSize int) *FileManager {
	t.Helper()
	fm, err := NewFileManager(t.TempDir(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fm.Close() })
	return fm
}

func TestFileManagerAllocateReadWrite(t *testing.T) {
	fm := newFM(t, 512)
	id, err := fm.Open("ds/part0/primary")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := fm.NumPages(id); n != 0 {
		t.Fatalf("new file has %d pages", n)
	}
	p0, err := fm.Allocate(id)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := fm.Allocate(id)
	if p0 != 0 || p1 != 1 {
		t.Fatalf("allocation order: %d, %d", p0, p1)
	}
	buf := make([]byte, 512)
	copy(buf, "hello page")
	if err := fm.WritePage(id, 1, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := fm.ReadPage(id, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("read != write")
	}
	// Page 0 must be zeroed.
	if err := fm.ReadPage(id, 0, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
}

// Allocation is bookkeeping: it touches no file, so no I/O failure can leave
// a page counted that was never handed out (Allocate used to count the page
// and then write zeros to it, and a failed write left the count one ahead).
// The file grows when a page is written; until then an allocated page reads
// as zeros, and a crash forgets it.
func TestAllocateFailureLeavesCount(t *testing.T) {
	dir := t.TempDir()
	fm, err := NewFileManager(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fm.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{7}, 256)
	for want := int32(0); want < 3; want++ {
		if got, err := fm.Allocate(id); err != nil || got != want {
			t.Fatalf("Allocate = %d, %v; want %d", got, err, want)
		}
	}
	if err := fm.WritePage(id, 0, page); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, "f")); err != nil || st.Size() != 256 {
		t.Fatalf("file is %d bytes (%v) after one page write, want 256: allocation wrote", st.Size(), err)
	}
	got := bytes.Repeat([]byte{1}, 256)
	if err := fm.ReadPage(id, 2, got); err != nil || !bytes.Equal(got, make([]byte, 256)) {
		t.Fatalf("allocated, unwritten page past the end of the file: err %v, zero %v", err, bytes.Equal(got, make([]byte, 256)))
	}
	if err := fm.ReadPage(id, 3, got); err == nil {
		t.Fatal("reading a page that was never allocated succeeded")
	}

	// With the descriptor gone every write fails; allocating does not write.
	if err := fm.files[id].f.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := fm.Allocate(id); err != nil || n != 3 {
		t.Fatalf("Allocate on a dead descriptor = %d, %v; want 3, nil", n, err)
	}
	if err := fm.WritePage(id, 3, page); err == nil {
		t.Fatal("write on a dead descriptor succeeded")
	}
	if n, _ := fm.NumPages(id); n != 4 {
		t.Fatalf("NumPages = %d, want the 4 pages handed out", n)
	}

	// A new process sees the pages that were written, not the ones promised.
	fm2, err := NewFileManager(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fm2.Close()
	id2, err := fm2.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := fm2.NumPages(id2); n != 1 {
		t.Fatalf("reopened file has %d pages, want the 1 written", n)
	}
}

func TestFileManagerReopenSameID(t *testing.T) {
	fm := newFM(t, 256)
	a, _ := fm.Open("x")
	b, _ := fm.Open("x")
	if a != b {
		t.Error("reopening should return same id")
	}
	if fm.Name(a) != "x" {
		t.Errorf("Name = %q", fm.Name(a))
	}
}

func TestFileManagerDelete(t *testing.T) {
	fm := newFM(t, 256)
	id, _ := fm.Open("gone")
	if _, err := fm.Allocate(id); err != nil {
		t.Fatal(err)
	}
	if err := fm.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	id2, err := fm.Open("gone")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := fm.NumPages(id2); n != 0 {
		t.Error("deleted file not empty on reopen")
	}
	// Deleting a nonexistent file is not an error.
	if err := fm.Delete("never-existed"); err != nil {
		t.Errorf("delete nonexistent: %v", err)
	}
}

func TestBufferCacheHitAndMiss(t *testing.T) {
	fm := newFM(t, 256)
	bc := NewBufferCache(fm, 4)
	id, _ := fm.Open("f")
	p, err := bc.NewPage(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data, "cached!")
	pid := p.ID
	bc.Unpin(p, true)

	p2, err := bc.Pin(pid)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2.Data[:7]) != "cached!" {
		t.Error("cache lost page content")
	}
	bc.Unpin(p2, false)
	st := bc.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
	if st.Reads != 0 {
		t.Errorf("reads = %d, want 0 (page never left cache)", st.Reads)
	}
	validateQuiescent(t, bc)
}

func TestBufferCacheEvictionWritesBack(t *testing.T) {
	fm := newFM(t, 256)
	bc := NewBufferCache(fm, 2) // tiny cache forces eviction
	id, _ := fm.Open("f")
	var pids []PageID
	for i := 0; i < 5; i++ {
		p, err := bc.NewPage(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i + 1)
		pids = append(pids, p.ID)
		bc.Unpin(p, true)
	}
	// All five pages must be readable with correct content.
	for i, pid := range pids {
		p, err := bc.Pin(pid)
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != byte(i+1) {
			t.Errorf("page %d content lost: %d", i, p.Data[0])
		}
		bc.Unpin(p, false)
	}
	if st := bc.Stats(); st.Writes == 0 {
		t.Error("evictions should have caused physical writes")
	}
	validateQuiescent(t, bc)
}

func TestBufferCacheAllPinnedFails(t *testing.T) {
	fm := newFM(t, 256)
	bc := NewBufferCache(fm, 2)
	id, _ := fm.Open("f")
	a, _ := bc.NewPage(id)
	b, _ := bc.NewPage(id)
	if _, err := bc.NewPage(id); err == nil {
		t.Error("pinning beyond capacity must fail")
	}
	bc.Unpin(a, false)
	bc.Unpin(b, false)
	if _, err := bc.NewPage(id); err != nil {
		t.Errorf("after unpinning, allocation should work: %v", err)
	}
}

func TestBufferCacheDoubleUnpinPanics(t *testing.T) {
	fm := newFM(t, 256)
	bc := NewBufferCache(fm, 2)
	id, _ := fm.Open("f")
	p, _ := bc.NewPage(id)
	bc.Unpin(p, false)
	defer func() {
		if recover() == nil {
			t.Error("double unpin should panic")
		}
	}()
	bc.Unpin(p, false)
}

func TestBufferCacheFlushAndEvict(t *testing.T) {
	fm := newFM(t, 256)
	bc := NewBufferCache(fm, 8)
	id, _ := fm.Open("f")
	p, _ := bc.NewPage(id)
	copy(p.Data, "durable")
	pid := p.ID
	bc.Unpin(p, true)
	if err := bc.FlushFile(id); err != nil {
		t.Fatal(err)
	}
	// Direct file read must see flushed content.
	raw := make([]byte, 256)
	if err := fm.ReadPage(id, pid.Num, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[:7]) != "durable" {
		t.Error("flush did not reach disk")
	}
	if err := bc.Evict(id); err != nil {
		t.Fatal(err)
	}
	// Re-pin must do a physical read.
	before := bc.Stats().Reads
	p2, err := bc.Pin(pid)
	if err != nil {
		t.Fatal(err)
	}
	bc.Unpin(p2, false)
	if bc.Stats().Reads != before+1 {
		t.Error("evict should have dropped the page from cache")
	}
	validateQuiescent(t, bc)
}

func TestBufferCacheConcurrentAccess(t *testing.T) {
	fm := newFM(t, 256)
	bc := NewBufferCache(fm, 16)
	id, _ := fm.Open("f")
	var pids []PageID
	for i := 0; i < 32; i++ {
		p, err := bc.NewPage(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		pids = append(pids, p.ID)
		bc.Unpin(p, true)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pid := pids[(seed*31+i)%len(pids)]
				p, err := bc.Pin(pid)
				if err != nil {
					errCh <- err
					return
				}
				if p.Data[0] != byte(pid.Num) {
					errCh <- fmt.Errorf("page %v content %d", pid, p.Data[0])
					bc.Unpin(p, false)
					return
				}
				bc.Unpin(p, false)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	validateQuiescent(t, bc)
}

func TestStatsHitRatio(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.HitRatio() != 0.75 {
		t.Errorf("hit ratio = %f", s.HitRatio())
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty stats ratio should be 0")
	}
}
