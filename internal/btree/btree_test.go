package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"asterix/internal/check"
	"asterix/internal/storage"
)

func newTree(t testing.TB, pageSize, frames int) *BTree {
	t.Helper()
	fm, err := storage.NewFileManager(t.TempDir(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fm.Close() })
	bc := storage.NewBufferCache(fm, frames)
	id, err := fm.Open("bt")
	if err != nil {
		t.Fatal(err)
	}
	bt, err := Open(bc, id)
	if err != nil {
		t.Fatal(err)
	}
	// Every test ends with a deep structural walk and a pin-leak check.
	t.Cleanup(func() {
		check.MustValidate(t, bt)
		if n := bc.Pinned(); n != 0 {
			t.Errorf("buffer cache still holds %d pins after the test", n)
		}
	})
	return bt
}

func ikey(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// load bulk-loads key(i) → val(i) for i in [0, n); key must ascend.
func load(t testing.TB, bt *BTree, n int, key, val func(i int) []byte) {
	t.Helper()
	i := 0
	err := bt.BulkLoad(func() ([]byte, []byte, bool) {
		if i == n {
			return nil, nil, false
		}
		i++
		return key(i - 1), val(i - 1), true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// loadKeys bulk-loads ikey(i) → ikey(i) for i in [0, n).
func loadKeys(t testing.TB, bt *BTree, n int) { load(t, bt, n, ikey, ikey) }

func TestSearchSmall(t *testing.T) {
	bt := newTree(t, 512, 64)
	load(t, bt, 100, func(i int) []byte { return ikey(i * 2) }, func(i int) []byte { return []byte(fmt.Sprintf("v%d", i*2)) })
	for i := 0; i < 100; i++ {
		v, ok, err := bt.Search(ikey(i * 2))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != fmt.Sprintf("v%d", i*2) {
			t.Fatalf("key %d: ok=%v v=%q", i*2, ok, v)
		}
		if _, ok, _ := bt.Search(ikey(i*2 + 1)); ok {
			t.Fatalf("key %d should be absent", i*2+1)
		}
	}
	if bt.Count() != 100 {
		t.Errorf("count = %d", bt.Count())
	}
}

func TestBulkLoadGrowsHeight(t *testing.T) {
	bt := newTree(t, 256, 256) // small pages make a deep tree
	n := 2000
	loadKeys(t, bt, n)
	if bt.Height() < 3 {
		t.Errorf("expected height >= 3 for %d keys in 256B pages, got %d", n, bt.Height())
	}
	for i := 0; i < n; i++ {
		if _, ok, _ := bt.Search(ikey(i)); !ok {
			t.Fatalf("lost key %d", i)
		}
	}
}

func TestScanRange(t *testing.T) {
	bt := newTree(t, 256, 256)
	loadKeys(t, bt, 500)
	var got []int
	err := bt.Scan(ikey(100), ikey(199), func(k, v []byte) bool {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("scan returned %d keys", len(got))
	}
	for i, k := range got {
		if k != 100+i {
			t.Fatalf("scan out of order at %d: %d", i, k)
		}
	}
	// Full scan, unbounded.
	cnt := 0
	if err := bt.Scan(nil, nil, func(k, v []byte) bool { cnt++; return true }); err != nil {
		t.Fatal(err)
	}
	if cnt != 500 {
		t.Errorf("full scan found %d", cnt)
	}
	// Early stop.
	cnt = 0
	bt.Scan(nil, nil, func(k, v []byte) bool { cnt++; return cnt < 10 })
	if cnt != 10 {
		t.Errorf("early stop at %d", cnt)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fm, err := storage.NewFileManager(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	bc := storage.NewBufferCache(fm, 32)
	id, _ := fm.Open("bt")
	bt, err := Open(bc, id)
	if err != nil {
		t.Fatal(err)
	}
	load(t, bt, 200, ikey, func(int) []byte { return []byte("x") })
	if err := bc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	fm.Close()

	fm2, err := storage.NewFileManager(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fm2.Close()
	bc2 := storage.NewBufferCache(fm2, 32)
	id2, _ := fm2.Open("bt")
	bt2, err := Open(bc2, id2)
	if err != nil {
		t.Fatal(err)
	}
	if bt2.Count() != 200 {
		t.Fatalf("reopened count = %d", bt2.Count())
	}
	for i := 0; i < 200; i++ {
		if _, ok, _ := bt2.Search(ikey(i)); !ok {
			t.Fatalf("key %d lost across reopen", i)
		}
	}
}

func TestBulkLoadAndSearch(t *testing.T) {
	bt := newTree(t, 512, 128)
	n := 5000
	loadKeys(t, bt, n)
	if bt.Count() != int64(n) {
		t.Fatalf("count = %d", bt.Count())
	}
	for _, probe := range []int{0, 1, 999, 2500, 4999} {
		v, ok, err := bt.Search(ikey(probe))
		if err != nil || !ok || !bytes.Equal(v, ikey(probe)) {
			t.Fatalf("probe %d: ok=%v err=%v", probe, ok, err)
		}
	}
	if _, ok, _ := bt.Search(ikey(n)); ok {
		t.Error("absent key found")
	}
	// Scan order intact.
	prev := -1
	bt.Scan(nil, nil, func(k, v []byte) bool {
		cur := int(binary.BigEndian.Uint64(k))
		if cur <= prev {
			t.Fatalf("scan out of order: %d after %d", cur, prev)
		}
		prev = cur
		return true
	})
	if prev != n-1 {
		t.Errorf("scan ended at %d", prev)
	}
}

// Input that is out of order, or repeats a key, is refused.
func TestBulkLoadRejectsUnsorted(t *testing.T) {
	for _, seq := range [][]int{{1, 3, 2}, {1, 3, 3}} {
		bt := newTree(t, 512, 32)
		i := 0
		err := bt.BulkLoad(func() ([]byte, []byte, bool) {
			if i >= len(seq) {
				return nil, nil, false
			}
			k := ikey(seq[i])
			i++
			return k, k, true
		})
		if err == nil {
			t.Errorf("bulk load of %v must fail", seq)
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	bt := newTree(t, 512, 32)
	if err := bt.BulkLoad(func() ([]byte, []byte, bool) { return nil, nil, false }); err != nil {
		t.Fatal(err)
	}
	if bt.Count() != 0 {
		t.Error("empty bulk load should leave empty tree")
	}
	if _, ok, _ := bt.Search([]byte("x")); ok {
		t.Error("search in empty tree")
	}
}

func TestRejectsOversizeEntry(t *testing.T) {
	bt := newTree(t, 256, 32)
	big := make([]byte, 300)
	sent := false
	err := bt.BulkLoad(func() ([]byte, []byte, bool) {
		if sent {
			return nil, nil, false
		}
		sent = true
		return []byte("k"), big, true
	})
	if err == nil {
		t.Error("oversize entry must be rejected")
	}
}

// A restart offset is 2 bytes, so a file of pages larger than 64 KiB is
// refused.
func TestOpenRefusesPagesPastRestartRange(t *testing.T) {
	for _, c := range []struct {
		pageSize int
		ok       bool
	}{{maxPageSize, true}, {maxPageSize + 1, false}} {
		fm, err := storage.NewFileManager(t.TempDir(), c.pageSize)
		if err != nil {
			t.Fatal(err)
		}
		id, err := fm.Open("bt")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(storage.NewBufferCache(fm, 4), id); (err == nil) != c.ok {
			t.Errorf("page size %d: Open error %v", c.pageSize, err)
		}
		fm.Close()
	}
}

// Property: a tree loaded from a random history's final state behaves like
// that sorted map — count, full scan, and a search for every key and for
// every key the history deleted.
func TestPropMatchesReferenceMap(t *testing.T) {
	ref := map[string]string{}
	deleted := map[string]bool{}
	r := rand.New(rand.NewSource(77))
	for op := 0; op < 5000; op++ {
		k := fmt.Sprintf("key%04d", r.Intn(800))
		if r.Intn(3) < 2 {
			ref[k] = fmt.Sprintf("val%d", op)
			delete(deleted, k)
		} else if _, ok := ref[k]; ok {
			delete(ref, k)
			deleted[k] = true
		}
	}
	var refKeys []string
	for k := range ref {
		refKeys = append(refKeys, k)
	}
	sort.Strings(refKeys)
	bt := newTree(t, 256, 512)
	load(t, bt, len(refKeys), func(i int) []byte { return []byte(refKeys[i]) }, func(i int) []byte { return []byte(ref[refKeys[i]]) })

	if bt.Count() != int64(len(ref)) {
		t.Fatalf("count %d != ref %d", bt.Count(), len(ref))
	}
	i := 0
	bt.Scan(nil, nil, func(k, v []byte) bool {
		if i >= len(refKeys) || string(k) != refKeys[i] || string(v) != ref[refKeys[i]] {
			t.Fatalf("scan mismatch at %d: %s", i, k)
		}
		i++
		return true
	})
	if i != len(refKeys) {
		t.Fatalf("scan visited %d of %d", i, len(refKeys))
	}
	for k, want := range ref {
		if v, ok, err := bt.Search([]byte(k)); err != nil || !ok || string(v) != want {
			t.Fatalf("Search(%s) = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	for k := range deleted {
		if _, ok, err := bt.Search([]byte(k)); ok || err != nil {
			t.Fatalf("Search(%s) found a deleted key (err %v)", k, err)
		}
	}
}

func BenchmarkSearchHot(b *testing.B) {
	bt := newTree(b, 4096, 1024)
	loadKeys(b, bt, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Search(ikey(i % 10000))
	}
}
