package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentAdmissionSpills over-subscribes a tiny working-memory pool
// with K concurrent aggregation queries. All of them must complete with
// identical (correct) results — the governor admits each job at its
// minimum grant and denies Grow, so the operators degrade to spilling
// instead of failing — and at no instant may the granted working memory
// exceed the pool.
func TestConcurrentAdmissionSpills(t *testing.T) {
	e := newEngine(t, Config{
		Partitions:    1,
		WorkingMemory: 64 << 10,
	})
	mustExec(t, e, `
		CREATE TYPE T AS {id: int};
		CREATE DATASET D(T) PRIMARY KEY id;
	`)
	var sb strings.Builder
	sb.WriteString("UPSERT INTO D ([")
	const rows = 3000
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"id": %d, "grp": "group-%04d", "pad": "%s"}`,
			i, i%1500, strings.Repeat("x", 64))
	}
	sb.WriteString("]);")
	mustExec(t, e, sb.String())

	gov := e.MemGovernor()
	if gov == nil {
		t.Fatal("engine has no memory governor")
	}
	cap := gov.WorkingCap()
	if cap != 64<<10 {
		t.Fatalf("working cap = %d, want %d", cap, 64<<10)
	}

	// Watchdog: granted working memory must never exceed the pool.
	stop := make(chan struct{})
	var overBudget atomic.Int64
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := gov.WorkingGranted(); g > cap {
				overBudget.Store(g)
			}
		}
	}()

	const q = `SELECT g AS grp, COUNT(*) AS n FROM D d GROUP BY d.grp AS g ORDER BY grp LIMIT 5;`
	want := queryRows(t, e, q)
	if len(want) != 5 {
		t.Fatalf("baseline rows = %d, want 5", len(want))
	}

	const K = 4
	var wg sync.WaitGroup
	errs := make([]error, K)
	peaks := make([]int64, K)
	for i := 0; i < K; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.Query(context.Background(), q)
			if err != nil {
				errs[i] = err
				return
			}
			peaks[i] = r.PeakWorkingMem
			if !reflect.DeepEqual(r.Rows, want) {
				errs[i] = fmt.Errorf("rows diverge: got %v want %v", r.Rows, want)
			}
		}()
	}
	wg.Wait()
	close(stop)
	watch.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
	if g := overBudget.Load(); g != 0 {
		t.Errorf("granted working memory %d exceeded the %d-byte pool", g, cap)
	}
	for i, p := range peaks {
		if p <= 0 {
			t.Errorf("query %d reported no peak working memory", i)
		}
		if p > cap {
			t.Errorf("query %d peak %d exceeds pool %d", i, p, cap)
		}
	}
	st := gov.StatsSnapshot()
	if st.Waits == 0 {
		t.Errorf("no admission waits recorded under %d-way over-subscription: %+v", K, st)
	}
	if spills := e.Cluster().TotalStats().Spills; spills == 0 {
		t.Error("expected run-file spills under memory pressure, saw none")
	}
}

// TestSingleQueryGetsFullPool verifies admission control does not tax a
// lone query: with no competition, a single job can grow to the whole
// working pool and its in-memory execution shape is unchanged.
func TestSingleQueryGetsFullPool(t *testing.T) {
	e := newEngine(t, Config{
		Partitions:    1,
		WorkingMemory: 8 << 20,
	})
	mustExec(t, e, `
		CREATE TYPE T AS {id: int};
		CREATE DATASET D(T) PRIMARY KEY id;
	`)
	var sb strings.Builder
	sb.WriteString("UPSERT INTO D ([")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"id": %d, "grp": %d}`, i, i%100)
	}
	sb.WriteString("]);")
	mustExec(t, e, sb.String())

	rows := queryRows(t, e, `SELECT g AS grp, COUNT(*) AS n FROM D d GROUP BY d.grp AS g ORDER BY grp;`)
	if len(rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(rows))
	}
	if spills := e.Cluster().TotalStats().Spills; spills != 0 {
		t.Errorf("lone query within budget spilled %d times", spills)
	}
}

// TestTotalMemorySplitsOneBudget checks how Open divides Config.TotalMemory
// into the three pools of Figure 2: the buffer cache gets a quarter in pages
// (at least 64), the component pool a quarter, each memory component a
// quarter of the pool (at least 64 KiB), and working memory the rest. An
// explicit BufferPages is carved out of the total. The governor is given
// the same pools, and they sum to the total.
func TestTotalMemorySplitsOneBudget(t *testing.T) {
	const kib, mib = 1 << 10, 1 << 20
	for _, c := range []struct {
		name                  string
		cfg                   Config
		pages, budget         int
		pool, working, buffer int64
	}{
		{"64 MiB", Config{TotalMemory: 64 * mib},
			2048, 4 * mib, 16 * mib, 32 * mib, 16 * mib},
		{"1 MiB, the buffer cache at its floor", Config{TotalMemory: 1 * mib},
			64, 64 * kib, 256 * kib, 256 * kib, 512 * kib},
		{"64 MiB, 1024 buffer pages carved out", Config{TotalMemory: 64 * mib, BufferPages: 1024},
			1024, 4 * mib, 16 * mib, 40 * mib, 8 * mib},
	} {
		e := newEngine(t, c.cfg)
		if e.cfg.BufferPages != c.pages || e.cfg.MemComponentBudget != c.budget ||
			e.cfg.componentPool != int(c.pool) || e.cfg.WorkingMemory != int(c.working) {
			t.Errorf("%s: pages %d, component budget %d, pool %d, working %d; want %d, %d, %d, %d", c.name,
				e.cfg.BufferPages, e.cfg.MemComponentBudget, e.cfg.componentPool, e.cfg.WorkingMemory,
				c.pages, c.budget, c.pool, c.working)
		}
		snap := e.Metrics().Snapshot()
		for name, want := range map[string]int64{
			"mem_buffercache_reserved_bytes": c.buffer,
			"mem_component_pool_bytes":       c.pool,
			"mem_working_pool_bytes":         c.working,
			"mem_total_budget_bytes":         c.cfg.TotalMemory,
		} {
			if got := snap[name]; got != float64(want) {
				t.Errorf("%s: %s = %v, want %d", c.name, name, got, want)
			}
		}
	}

	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"below 1 MiB", Config{TotalMemory: 1*mib - 1}, "below the 1 MiB minimum"},
		{"no working memory left", Config{TotalMemory: 4 * mib, BufferPages: 384}, "leaves no working memory"},
	} {
		c.cfg.DataDir = t.TempDir()
		if e, err := Open(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			if err == nil {
				e.Close()
			}
			t.Errorf("%s: Open returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
