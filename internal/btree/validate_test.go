package btree

import (
	"encoding/binary"
	"testing"

	"asterix/internal/storage"
)

// rawTree builds a tree without newTree's cleanup validation, so tests
// can corrupt it deliberately.
func rawTree(t *testing.T) *BTree {
	t.Helper()
	fm, err := storage.NewFileManager(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fm.Close() })
	bc := storage.NewBufferCache(fm, 64)
	id, err := fm.Open("bt")
	if err != nil {
		t.Fatal(err)
	}
	bt, err := Open(bc, id)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

func TestValidateCleanTree(t *testing.T) {
	bt := rawTree(t)
	loadKeys(t, bt, 500)
	if err := bt.Validate(); err != nil {
		t.Fatalf("healthy tree failed validation: %v", err)
	}
}

func TestValidateDetectsCountMismatch(t *testing.T) {
	bt := rawTree(t)
	loadKeys(t, bt, 50)
	bt.count += 5
	if err := bt.Validate(); err == nil {
		t.Fatal("validator missed a meta-count mismatch")
	}
	bt.count -= 5
}

func TestValidateDetectsKeyDisorder(t *testing.T) {
	bt := rawTree(t)
	loadKeys(t, bt, 500)
	// Swap two keys in the leftmost leaf.
	num, err := bt.findLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := bt.readNode(num)
	if err != nil {
		t.Fatal(err)
	}
	n.keys[0], n.keys[1] = n.keys[1], n.keys[0]
	rewrite(t, bt, num, n)
	if err := bt.Validate(); err == nil {
		t.Fatal("validator missed out-of-order keys")
	}
}

// Every trailer is checked: its count against the page's entries, and
// that restart offset r points at entry r*restartEvery — not into the
// header, past the body, or at another entry.
func TestValidateDetectsRestartDamage(t *testing.T) {
	const pageSize = 512
	for name, damage := range map[string]func(p []byte){
		"count":        func(p []byte) { binary.BigEndian.PutUint16(p[pageSize-2:], 1) },
		"into header":  func(p []byte) { binary.BigEndian.PutUint16(p[pageSize-4:], 3) },
		"past body":    func(p []byte) { binary.BigEndian.PutUint16(p[pageSize-4:], pageSize-3) },
		"next entry":   func(p []byte) { binary.BigEndian.PutUint16(p[pageSize-4:], pageHeaderSize+17*18) },
		"first offset": func(p []byte) { binary.BigEndian.PutUint16(p[pageSize-6:], pageHeaderSize+18) },
	} {
		bt := rawTree(t)
		loadKeys(t, bt, 500) // 18-byte entries: 27 to a leaf, two restart groups
		num, err := bt.findLeaf(nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bt.bc.Pin(storage.PageID{File: bt.file, Num: num})
		if err != nil {
			t.Fatal(err)
		}
		if r := binary.BigEndian.Uint16(p.Data[pageSize-2:]); r != 2 {
			t.Fatalf("the leftmost leaf has %d restart points, want 2", r)
		}
		damage(p.Data)
		bt.bc.Unpin(p, true)
		if err := bt.Validate(); err == nil {
			t.Errorf("%s: validator missed the damaged trailer", name)
		}
	}
}
