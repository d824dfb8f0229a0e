package lsm

// MergePolicy decides which disk components to merge after a flush. Sizes
// are entry counts, newest component first. PickMerge returns an inclusive
// index range and ok=true to request a merge.
//
// The policy menagerie mirrors AsterixDB's: no-merge (pure append),
// constant-components (bounded read amplification, high write
// amplification), and prefix/tiered (merge runs of similar size). The E8
// bench compares them.
type MergePolicy interface {
	PickMerge(sizes []int64) (lo, hi int, ok bool)
}

// NoMergePolicy never merges; read amplification grows with every flush.
type NoMergePolicy struct{}

// PickMerge implements MergePolicy.
func (NoMergePolicy) PickMerge([]int64) (int, int, bool) { return 0, 0, false }

// ConstantPolicy keeps at most Components disk components by merging all
// of them whenever the bound is exceeded.
type ConstantPolicy struct {
	Components int
}

// PickMerge implements MergePolicy.
func (p ConstantPolicy) PickMerge(sizes []int64) (int, int, bool) {
	if len(sizes) > max(p.Components, 1) {
		return 0, len(sizes) - 1, true
	}
	return 0, 0, false
}

// TieredPolicy merges a run of tieredMinRun or more components whose
// sizes are within tieredRatio of each other — the classic size-tiered
// scheme (AsterixDB's "prefix" policy is a close relative).
type TieredPolicy struct{}

const (
	tieredRatio  = 3.0 // the size multiple between tiers
	tieredMinRun = 3   // the run length that triggers a merge
)

// PickMerge implements MergePolicy.
func (TieredPolicy) PickMerge(sizes []int64) (int, int, bool) {
	// Find the longest newest-prefix of components whose sizes are within
	// tieredRatio of each other; merge it when long enough.
	run := 1
	for i := 1; i < len(sizes); i++ {
		a, b := float64(sizes[i-1]), float64(sizes[i])
		if a == 0 || b == 0 || b/a > tieredRatio || a/b > tieredRatio {
			break
		}
		run++
	}
	if run >= tieredMinRun {
		return 0, run - 1, true
	}
	return 0, 0, false
}
