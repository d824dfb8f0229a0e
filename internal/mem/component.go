package mem

import "asterix/internal/obs"

// ComponentCharge is one LSM tree's account against the memory-component
// pool. The pool is a soft cap: writers are never rejected, but when the
// sum of charges exceeds it the governor arbitrates flushes across ALL
// registered trees, earliest-dirty first — the global replacement for
// per-tree thresholds, so one hot tree cannot starve the others of
// ingestion memory.
//
// A nil *ComponentCharge (tree opened without a governor) is a valid
// no-op account.
type ComponentCharge struct {
	g    *Governor
	name string
	// trySeal attempts to seal the owning tree's memory component
	// WITHOUT blocking on its writer lock. It returns done=false when the
	// lock was busy (a writer is mid-mutation there); the arbiter then
	// moves on to the next-earliest tree instead of deadlocking on a
	// cross-tree lock cycle. A wait for the tree's previous sealed
	// component to reach disk is attributed to sp.
	trySeal func(sp *obs.Span) (done bool, err error)

	// Guarded by g.mu.
	bytes      int64
	sealed     int64 // the sealed component's bytes, until its flush ends
	firstDirty int64 // 0 = clean; else the governor-wide dirty sequence
}

// RegisterComponent adds a tree's account to the pool. trySeal is the
// arbitration hook (see ComponentCharge). Nil governor returns nil.
func (g *Governor) RegisterComponent(name string, trySeal func(*obs.Span) (bool, error)) *ComponentCharge {
	if g == nil {
		return nil
	}
	c := &ComponentCharge{g: g, name: name, trySeal: trySeal}
	g.mu.Lock()
	g.charges = append(g.charges, c)
	g.mu.Unlock()
	return c
}

// Unregister removes the account, returning its charged bytes to the
// pool (dataset drop).
func (c *ComponentCharge) Unregister() {
	if c == nil {
		return
	}
	g := c.g
	g.mu.Lock()
	g.compUsed -= c.bytes
	if g.compUsed < 0 {
		g.compUsed = 0
	}
	g.sealedUsed -= c.sealed
	c.bytes, c.sealed = 0, 0
	c.firstDirty = 0
	for i, q := range g.charges {
		if q == c {
			g.charges = append(g.charges[:i], g.charges[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
}

// Add charges delta bytes (negative for in-place shrink) and, when the
// pool is over budget, arbitrates seals earliest-dirty-first.
// sealSelf=true means the caller's own tree is the earliest-dirty
// victim: the caller already holds its writer lock, so only it can seal
// that component — it must before returning to its client. Time the
// arbitrated seals wait for sealed slots is attributed to sp.
//
// The caller MUST hold its tree's writer lock (the same lock its
// trySeal hook try-acquires), which is what makes cross-tree
// arbitration safe: a victim mid-write is simply skipped this round.
func (c *ComponentCharge) Add(delta int64, sp *obs.Span) (sealSelf bool, err error) {
	if c == nil {
		return false, nil
	}
	g := c.g
	g.mu.Lock()
	c.bytes += delta
	if c.bytes < 0 {
		c.bytes = 0
	}
	g.compUsed += delta
	if g.compUsed < 0 {
		g.compUsed = 0
	}
	if c.firstDirty == 0 && c.bytes > 0 {
		g.dirtySeq++
		c.firstDirty = g.dirtySeq
	}
	g.mu.Unlock()
	return g.arbitrate(c, sp)
}

// Seal moves the charge out of the pool into the governor's sealed
// account after the owning tree swapped in a fresh memory component
// (caller holds its writer lock, so the charge exactly covers the sealed
// one). It leaves the pool here, not when the flush ends, so what
// arbitration picks next never depends on how far a flush has got.
func (c *ComponentCharge) Seal() {
	if c == nil {
		return
	}
	g := c.g
	g.mu.Lock()
	g.compUsed -= c.bytes
	if g.compUsed < 0 {
		g.compUsed = 0
	}
	g.sealedUsed += c.bytes
	c.bytes, c.sealed = 0, c.sealed+c.bytes
	c.firstDirty = 0
	g.mu.Unlock()
}

// Flushed releases the sealed bytes: the sealed component is on disk.
func (c *ComponentCharge) Flushed() {
	if c == nil {
		return
	}
	c.g.mu.Lock()
	c.g.sealedUsed -= c.sealed
	c.sealed = 0
	c.g.mu.Unlock()
}

// arbitrate seals dirty trees, earliest-dirty first, until the pool is
// back under budget or no victim is actionable. Victims whose writer
// lock is busy are skipped for this round (their own write path will
// re-arbitrate). Returns sealSelf=true when self is the chosen victim.
func (g *Governor) arbitrate(self *ComponentCharge, sp *obs.Span) (bool, error) {
	var skip map[*ComponentCharge]bool
	for {
		g.mu.Lock()
		if g.compUsed <= g.cfg.ComponentBytes {
			g.mu.Unlock()
			return false, nil
		}
		var victim *ComponentCharge
		for _, c := range g.charges {
			if c.firstDirty == 0 || skip[c] {
				continue
			}
			if victim == nil || c.firstDirty < victim.firstDirty {
				victim = c
			}
		}
		g.mu.Unlock()
		if victim == nil {
			return false, nil
		}
		if victim == self {
			return true, nil
		}
		done, err := victim.trySeal(sp)
		if err != nil {
			return false, err
		}
		if done {
			g.mArbFlushes.Inc()
			continue
		}
		if skip == nil {
			skip = map[*ComponentCharge]bool{}
		}
		skip[victim] = true
	}
}
