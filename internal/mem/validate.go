package mem

import "fmt"

// Validate deep-checks the governor's accounting against its own books:
// every byte of workUsed must be explainable by the working-pool cap,
// compUsed and sealedUsed must equal the sums of the per-tree component
// charges and sealed bytes, and the waiter queue must be consistent with
// the FIFO pump (nobody both granted and queued; the head waiter
// genuinely blocked). It implements
// check.Validator so tests can call check.MustValidate on a governor at
// any barrier; a nil governor (unbudgeted cluster) is trivially valid.
//
// The component pool is a soft cap — charges legitimately exceed
// ComponentBytes while arbitration is in flight or when no flush victim
// is actionable — so Validate checks the charge ledger's internal
// consistency, not an upper bound on compUsed.
func (g *Governor) Validate() error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	if g.workUsed < 0 {
		return fmt.Errorf("mem: workUsed %d is negative", g.workUsed)
	}
	if g.workUsed > g.cfg.WorkingBytes {
		return fmt.Errorf("mem: workUsed %d exceeds the %d-byte working pool (hard cap)",
			g.workUsed, g.cfg.WorkingBytes)
	}

	var sum, sealed int64
	for _, c := range g.charges {
		if c.bytes < 0 {
			return fmt.Errorf("mem: component %q charge %d is negative", c.name, c.bytes)
		}
		if c.bytes > 0 && c.firstDirty == 0 {
			return fmt.Errorf("mem: component %q holds %d bytes but is not on the dirty sequence",
				c.name, c.bytes)
		}
		if c.firstDirty > g.dirtySeq {
			return fmt.Errorf("mem: component %q dirty seq %d is ahead of the governor's %d",
				c.name, c.firstDirty, g.dirtySeq)
		}
		sum += c.bytes
		sealed += c.sealed
	}
	if g.compUsed != sum {
		return fmt.Errorf("mem: compUsed %d != sum of %d registered charges %d",
			g.compUsed, len(g.charges), sum)
	}
	if g.sealedUsed != sealed {
		return fmt.Errorf("mem: sealedUsed %d != sum of sealed components %d", g.sealedUsed, sealed)
	}

	for i, w := range g.waiters {
		if w.granted {
			return fmt.Errorf("mem: waiter %d of %d was granted but never left the queue",
				i, len(g.waiters))
		}
		if w.need <= 0 {
			return fmt.Errorf("mem: waiter %d queued for %d bytes", i, w.need)
		}
	}
	// The pump runs under g.mu on every release, so at rest a queued
	// head waiter must genuinely not fit; a fitting head means a missed
	// pump (the reservation would wait out its whole admission window
	// with memory sitting free).
	if len(g.waiters) > 0 && g.workUsed+g.waiters[0].need <= g.cfg.WorkingBytes {
		return fmt.Errorf("mem: head waiter needs %d bytes with %d free but was not granted",
			g.waiters[0].need, g.cfg.WorkingBytes-g.workUsed)
	}
	return nil
}
