package btree

import (
	"encoding/binary"
	"testing"

	"asterix/internal/check"
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
	const (
		pageSize = 512
		whole    = 1 + 1 + 8 + 1 + 8 // an ikey → ikey entry at a restart point
	)
	last := pageSize - 4 // the last restart offset
	for name, damage := range map[string]func(p []byte, r int){
		"count":       func(p []byte, r int) { binary.BigEndian.PutUint16(p[pageSize-2:], uint16(r-1)) },
		"into header": func(p []byte, r int) { binary.BigEndian.PutUint16(p[last:], 3) },
		"past body":   func(p []byte, r int) { binary.BigEndian.PutUint16(p[last:], pageSize-3) },
		"next entry": func(p []byte, r int) {
			binary.BigEndian.PutUint16(p[last:], binary.BigEndian.Uint16(p[last:])+whole)
		},
		"first offset": func(p []byte, r int) {
			binary.BigEndian.PutUint16(p[pageSize-2-2*r:], pageHeaderSize+whole)
		},
	} {
		bt := rawTree(t)
		loadKeys(t, bt, 500)
		num, err := bt.findLeaf(nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bt.bc.Pin(storage.PageID{File: bt.file, Num: num})
		if err != nil {
			t.Fatal(err)
		}
		r := int(binary.BigEndian.Uint16(p.Data[pageSize-2:]))
		if r < 2 {
			t.Fatalf("the leftmost leaf has %d restart points, want at least 2", r)
		}
		damage(p.Data, r)
		bt.bc.Unpin(p, true)
		if err := bt.Validate(); err == nil {
			t.Errorf("%s: validator missed the damaged trailer", name)
		}
	}
}

// Every prefix-compressed entry is checked against the one before it: it
// shares no more than the previous key's length, nothing at a restart
// point, and its suffix ends before the trailer. Validate — and so
// check.Run, where checking is on — refuses each.
func TestValidateDetectsPrefixDamage(t *testing.T) {
	const pageSize = 512
	for name, damage := range map[string]func(p []byte, end int, offs []int){
		// Entry 1's key shares 9 bytes of an 8-byte key.
		"shares past the previous key": func(p []byte, end int, offs []int) { p[offs[1]] = 9 },
		// The second restart point shares one byte, which its
		// predecessor has.
		"shares at a restart point": func(p []byte, end int, offs []int) { p[offs[restartEvery]] = 1 },
		// The last entry's suffix runs one byte into the trailer.
		"suffix into the trailer": func(p []byte, end int, offs []int) {
			last := offs[len(offs)-1]
			p[last+1] = byte(end - (last + 2) + 1)
		},
	} {
		bt := rawTree(t)
		loadKeys(t, bt, 500)
		num, err := bt.findLeaf(nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bt.bc.Pin(storage.PageID{File: bt.file, Num: num})
		if err != nil {
			t.Fatal(err)
		}
		v, err := parsePage(p.Data, nodeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		var offs []int
		for i, pos := 0, v.first; i < v.cnt; i++ {
			offs = append(offs, pos)
			shared, _, _, end, ok := v.entry(pos, i, true)
			if !ok || shared > 7 || (i%restartEvery != 0) != (shared > 0) {
				t.Fatalf("entry %d shares %d bytes (decodes: %v)", i, shared, ok)
			}
			pos = end
		}
		if len(offs) <= restartEvery {
			t.Fatalf("the leftmost leaf has %d entries, want a second restart group", len(offs))
		}
		damage(p.Data, len(v.buf), offs)
		bt.bc.Unpin(p, true)
		if err := bt.Validate(); err == nil {
			t.Errorf("%s: validator missed the damaged entry", name)
		}
		if err := check.Run(bt); (err != nil) != check.Enabled() {
			t.Errorf("%s: check.Run = %v with checking enabled %v", name, err, check.Enabled())
		}
	}
}
