package storage

import (
	"strings"
	"testing"
	"time"
)

// TestExhaustedCacheFailsAndRecovers pins every frame, checks that Pin and
// NewPage then fail with the exhausted error, and that the cache is still
// usable after them: once one page is unpinned, a Pin on another goroutine
// gets a frame. Every call runs under a one-second deadline, so a failing
// call that keeps the cache's lock fails the test instead of hanging it.
func TestExhaustedCacheFailsAndRecovers(t *testing.T) {
	fm := newFM(t, 512)
	id, err := fm.Open("exhausted")
	if err != nil {
		t.Fatal(err)
	}
	// A page on disk that is never cached until the end.
	extra, err := fm.Allocate(id)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 4
	bc := NewBufferCache(fm, frames)

	within := func(what string, call func() (*Page, error)) (*Page, error) {
		t.Helper()
		type result struct {
			p   *Page
			err error
		}
		done := make(chan result, 1)
		go func() {
			p, err := call()
			done <- result{p, err}
		}()
		select {
		case r := <-done:
			return r.p, r.err
		case <-time.After(time.Second):
			t.Fatalf("%s did not return within 1s", what)
			return nil, nil
		}
	}
	exhausted := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "buffer cache exhausted") {
			t.Fatalf("%s with every frame pinned = %v, want the exhausted error", what, err)
		}
	}

	pinned := make([]*Page, frames)
	for i := range pinned {
		if pinned[i], err = within("NewPage", func() (*Page, error) { return bc.NewPage(id) }); err != nil {
			t.Fatal(err)
		}
	}
	_, err = within("Pin", func() (*Page, error) { return bc.Pin(PageID{File: id, Num: extra}) })
	exhausted("Pin", err)
	_, err = within("NewPage", func() (*Page, error) { return bc.NewPage(id) })
	exhausted("NewPage", err)

	bc.Unpin(pinned[0], true)
	p, err := within("Pin after an Unpin", func() (*Page, error) { return bc.Pin(PageID{File: id, Num: extra}) })
	if err != nil {
		t.Fatalf("Pin after an Unpin: %v", err)
	}
	bc.Unpin(p, false)
	for _, p := range pinned[1:] {
		bc.Unpin(p, false)
	}
	validateQuiescent(t, bc)
}
