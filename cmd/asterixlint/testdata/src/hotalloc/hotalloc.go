// Fixture for the interprocedural hot-alloc rule. HotKernel is
// registered as a hot root by the test config; allocations reachable
// from it — directly or through callees — are findings unless a callee
// is proven allocation-free or a reasoned lint:ignore barrier stops the
// walk.
package hotalloc

import "fmt"

type pair struct{ a, b int }

var keyBytes = []byte{'k'}

// HotKernel is the registered hot root.
func HotKernel(x int) int {
	p := &pair{a: x, b: x} // WANT hot-alloc
	n := pureHelper(p.a)
	n += allocHelper(x)
	//lint:ignore hot-alloc cold diagnostics subtree, exercised only on corrupt input
	n += coldHelper(x)
	n += convHelper(keyBytes, "k")
	return n
}

// convHelper compares a []byte as a string, which copies nothing (true
// negative), and keeps one as a string, which does.
func convHelper(b []byte, s string) int {
	if string(b) == s || s < string(b) {
		return 0
	}
	kept := string(b) // WANT hot-alloc
	return len(kept)
}

// pureHelper is transitively allocation-free: calling it from the hot
// root is fine (true negative).
func pureHelper(x int) int {
	if x < 0 {
		return -x
	}
	return x * 2
}

// allocHelper allocates; the findings surface at its sites with the
// call chain from the root (true positives — one external call, plus
// the interface boxing of its argument).
func allocHelper(x int) int {
	s := fmt.Sprintf("%d", x) // WANT hot-alloc
	return len(s)
}

// coldHelper allocates too, but the call into it carries a reasoned
// barrier directive, so nothing below it is reported.
func coldHelper(x int) int {
	b := make([]byte, x)
	return len(b)
}
