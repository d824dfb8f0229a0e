package mem

import (
	"context"
	"strings"
	"testing"

	"asterix/internal/check"
	"asterix/internal/obs"
)

// The validator must stay quiet across the normal grant/charge life
// cycle — every barrier below is a state the governor reaches in real
// operation.
func TestValidateCleanLifecycle(t *testing.T) {
	g := testGovernor(2<<20, 64<<10)
	ctx := context.Background()
	check.MustValidate(t, g)

	gr, err := g.Reserve(ctx, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	check.MustValidate(t, g)
	if !gr.Grow(64 << 10) {
		t.Fatal("Grow within budget denied")
	}
	check.MustValidate(t, g)

	j, err := g.AdmitJob(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	tg := j.TaskGrant()
	check.MustValidate(t, g)

	c := g.RegisterComponent("t1", func(*obs.Span) (bool, error) { return true, nil })
	if _, err := c.Add(32<<10, nil); err != nil {
		t.Fatal(err)
	}
	check.MustValidate(t, g)
	c.Seal()
	check.MustValidate(t, g)
	c.Flushed()
	check.MustValidate(t, g)
	c.Unregister()

	tg.Release()
	j.Release()
	gr.Release()
	check.MustValidate(t, g)
	if got := g.WorkingGranted(); got != 0 {
		t.Fatalf("granted = %d after full release", got)
	}
}

// A nil governor (raw unbudgeted cluster) validates trivially.
func TestValidateNilGovernor(t *testing.T) {
	var g *Governor
	if err := g.Validate(); err != nil {
		t.Fatalf("nil governor: %v", err)
	}
}

// Corruption self-test: reach into the governor from inside the package
// and break each book the validator audits; every mutation must be
// caught, which proves the validator actually reads the state it claims
// to (a validator that passes corrupted books is worse than none).
func TestValidateDetectsCorruption(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		corrupt func(t *testing.T, g *Governor)
		want    string
	}{
		{
			name:    "negative-workUsed",
			corrupt: func(t *testing.T, g *Governor) { g.workUsed = -1 },
			want:    "negative",
		},
		{
			name:    "workUsed-over-cap",
			corrupt: func(t *testing.T, g *Governor) { g.workUsed = g.cfg.WorkingBytes + 1 },
			want:    "exceeds",
		},
		{
			name: "compUsed-ledger-drift",
			corrupt: func(t *testing.T, g *Governor) {
				c := g.RegisterComponent("drift", nil)
				if _, err := c.Add(8<<10, nil); err != nil {
					t.Fatal(err)
				}
				g.compUsed += 512 // lost update: pool total no longer the sum of charges
			},
			want: "sum of",
		},
		{
			name: "negative-charge",
			corrupt: func(t *testing.T, g *Governor) {
				c := g.RegisterComponent("neg", nil)
				g.compUsed, c.bytes = -4<<10, -4<<10
			},
			want: "negative",
		},
		{
			name: "dirty-seq-ahead",
			corrupt: func(t *testing.T, g *Governor) {
				c := g.RegisterComponent("seq", nil)
				if _, err := c.Add(1<<10, nil); err != nil {
					t.Fatal(err)
				}
				c.firstDirty = g.dirtySeq + 7
			},
			want: "ahead",
		},
		{
			name: "granted-waiter-still-queued",
			corrupt: func(t *testing.T, g *Governor) {
				g.waiters = append(g.waiters, &waiter{need: 1 << 10, ready: make(chan struct{}), granted: true})
			},
			want: "never left the queue",
		},
		{
			name: "missed-pump",
			corrupt: func(t *testing.T, g *Governor) {
				// A head waiter that fits means releaseWorking forgot to pump.
				g.waiters = append(g.waiters, &waiter{need: 1 << 10, ready: make(chan struct{})})
			},
			want: "not granted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGovernor(1<<20, 64<<10)
			gr, err := g.Reserve(ctx, 16<<10)
			if err != nil {
				t.Fatal(err)
			}
			defer gr.Release()
			tc.corrupt(t, g)
			err = g.Validate()
			if err == nil {
				t.Fatalf("validator passed corrupted books (%s)", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
