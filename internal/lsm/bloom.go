package lsm

// bloomFilter is a fixed-size Bloom filter guarding point lookups into a
// disk component (as in AsterixDB's LSM B+tree). A component of a tree that
// answers no point lookups has none: the nil filter takes every key and
// may contain any.
type bloomFilter struct {
	bits []uint64
	k    int
}

// newBloom sizes a filter for n keys at ~10 bits/key (k=7 ≈ 1% FPR).
func newBloom(n int) *bloomFilter {
	words := (max(n, 16)*10 + 63) / 64
	return &bloomFilter{bits: make([]uint64, words), k: 7}
}

// bloomHashes returns the two hashes the filter's k probes are derived
// from: FNV-1a of the key, and of the key plus one more byte. Computed
// inline — a point lookup hashes its key once per component.
func bloomHashes(key []byte) (uint64, uint64) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range key {
		h = (h ^ uint64(c)) * prime64
	}
	return h, (h ^ 0x9e) * prime64
}

func (b *bloomFilter) add(key []byte) {
	if b == nil {
		return
	}
	h1, h2 := bloomHashes(key)
	m := uint64(len(b.bits) * 64)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

func (b *bloomFilter) mayContain(key []byte) bool {
	if b == nil {
		return true
	}
	h1, h2 := bloomHashes(key)
	m := uint64(len(b.bits) * 64)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % m
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}
