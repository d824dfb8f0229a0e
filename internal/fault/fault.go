// Package fault is the deterministic fault-injection subsystem: a
// registry of named fault points that production code probes via guarded
// helpers (Hit, Tear) which compile down to a single atomic load when no
// fault is armed. Faults are armed programmatically (Arm) or from the
// ASTERIX_FAULTS environment variable, and every point keeps a hit
// counter that can be exported through the internal/obs registry.
//
// Spec grammar (comma-separated points):
//
//	point[:mode][:key=value]...
//
// where mode is one of error (default), panic, torn, or delay=<dur>, and
// the keys are:
//
//	after=N   skip the first N hits before firing (default 0)
//	times=N   fire at most N times, then become a no-op (default 1; 0 = unlimited)
//	p=F       fire with probability F per eligible hit (default 1.0,
//	          drawn from the registry's seeded PRNG — see Seed)
//
// Examples:
//
//	ASTERIX_FAULTS='lsm.flush.io:error'
//	ASTERIX_FAULTS='txn.wal.append:torn,hyracks.frame.delay:delay=2ms:times=0'
//	ASTERIX_FAULTS='hyracks.node.crash:error:after=3:times=1'
//
// Engine code calls only the guarded probes (Hit, Tear) and the
// read-only observers. Arm, Disarm and Seed change state for the whole
// process and are harness API: tests, ASTERIX_FAULTS, and the E13
// experiment in internal/experiments.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asterix/internal/obs"
)

// Canonical fault-point names. Points are plain strings — subsystems may
// invent their own — but the ones threaded through this repository are
// declared here so docs, specs, and tests share one spelling.
const (
	// PointNodeCrash kills the node controller about to run a task.
	PointNodeCrash = "hyracks.node.crash"
	// PointFrameDelay delays (or fails) a connector frame send.
	PointFrameDelay = "hyracks.frame.delay"
	// PointSpillIO fails the creation of a spill run file: a sort run, a
	// group-by partial partition, a grace-join build or probe partition.
	PointSpillIO = "hyracks.spill.io"
	// PointLSMFlush fails an LSM memory-component flush before it is
	// made durable (the manifest is never updated).
	PointLSMFlush = "lsm.flush.io"
	// PointLSMMerge fails an LSM merge before installing the component.
	PointLSMMerge = "lsm.merge.io"
	// PointWALSync fails the write-ahead-log fsync at commit.
	PointWALSync = "txn.wal.sync"
	// PointWALAppend tears a write-ahead-log append: only a prefix of
	// the record reaches the file, simulating a crash mid-write.
	PointWALAppend = "txn.wal.append"
	// PointPageWrite fails a storage-layer page write.
	PointPageWrite = "storage.write.io"
)

// ErrInjected is the sentinel wrapped by every injected error; callers
// test with errors.Is.
var ErrInjected = errors.New("injected fault")

// Mode is a fault point's behavior when it fires.
type Mode int

// Fault modes.
const (
	// ModeError makes Hit return an injected error.
	ModeError Mode = iota
	// ModePanic makes Hit panic (a hard in-process crash).
	ModePanic
	// ModeDelay makes Hit sleep for the configured duration.
	ModeDelay
	// ModeTorn makes Tear return a truncated prefix (Hit on a torn
	// point behaves like ModeError).
	ModeTorn
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	case ModeTorn:
		return "torn"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Point configures one named fault point.
type Point struct {
	Name  string
	Mode  Mode
	Delay time.Duration
	// After skips the first After eligible hits.
	After int64
	// Times bounds how often the point fires (0 = unlimited).
	Times int64
	// P is the per-hit firing probability in (0,1]; 0 means 1.0.
	P float64

	hits  int64 // total Hit/Tear probes while armed (atomic)
	fired int64 // times the point actually fired (atomic)
}

// registry is the armed fault set. One package-level instance: faults are
// process-wide by design (a crash is a process-wide event).
type registry struct {
	mu      sync.Mutex
	points  map[string]*Point
	rng     *rand.Rand
	metrics *obs.Registry
}

var (
	// armed is the fast-path gate: when 0, Hit and Tear return
	// immediately after a single atomic load.
	armed atomic.Int32
	reg   = &registry{points: map[string]*Point{}, rng: rand.New(rand.NewSource(1))}
)

func init() {
	if spec := os.Getenv("ASTERIX_FAULTS"); spec != "" {
		if err := Arm(spec); err != nil {
			// Arming from a malformed env var must be loud: silently
			// running without faults would invalidate a fault-matrix run.
			panic(fmt.Sprintf("fault: bad ASTERIX_FAULTS: %v", err))
		}
	}
	if s := os.Getenv("ASTERIX_FAULT_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("fault: bad ASTERIX_FAULT_SEED: %v", err))
		}
		Seed(n)
	}
}

// Armed reports whether any fault point is armed. It is the zero-cost
// guard: one atomic load.
func Armed() bool { return armed.Load() != 0 }

// Hit probes the named fault point. Disarmed (the common case) it is a
// single atomic load and returns nil. Armed, it increments the point's
// hit counter and — when the point is eligible to fire — injects the
// configured behavior: an error (wrapping ErrInjected), a panic, or a
// delay. Unknown points return nil.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	return reg.hit(name)
}

// Tear probes a torn-write fault point: when the point is armed in
// ModeTorn and eligible, it returns a strict prefix of buf and true; the
// caller should write only the prefix and fail the operation (wrapping
// ErrInjected), simulating a crash mid-write. Otherwise returns buf,
// false.
func Tear(name string, buf []byte) ([]byte, bool) {
	if armed.Load() == 0 {
		return buf, false
	}
	return reg.tear(name, buf)
}

func (r *registry) lookup(name string) *Point {
	r.mu.Lock()
	p := r.points[name]
	r.mu.Unlock()
	return p
}

// eligible counts one hit and decides whether the point fires now.
func (r *registry) eligible(p *Point) bool {
	n := atomic.AddInt64(&p.hits, 1)
	if n <= p.After {
		return false
	}
	if p.P > 0 && p.P < 1 {
		r.mu.Lock()
		roll := r.rng.Float64()
		r.mu.Unlock()
		if roll >= p.P {
			return false
		}
	}
	if p.Times > 0 {
		if atomic.AddInt64(&p.fired, 1) > p.Times {
			atomic.AddInt64(&p.fired, -1)
			return false
		}
		return true
	}
	atomic.AddInt64(&p.fired, 1)
	return true
}

func (r *registry) hit(name string) error {
	p := r.lookup(name)
	if p == nil || !r.eligible(p) {
		return nil
	}
	r.countFire(name)
	switch p.Mode {
	case ModePanic:
		panic(fmt.Sprintf("fault: injected panic at %s", name))
	case ModeDelay:
		time.Sleep(p.Delay)
		return nil
	default: // ModeError, ModeTorn
		return fmt.Errorf("fault: %s: %w", name, ErrInjected)
	}
}

func (r *registry) tear(name string, buf []byte) ([]byte, bool) {
	p := r.lookup(name)
	if p == nil || p.Mode != ModeTorn || !r.eligible(p) {
		return buf, false
	}
	r.countFire(name)
	return buf[:len(buf)/2], true
}

// countFire pushes one firing into the bound obs registry (nil-safe).
func (r *registry) countFire(name string) {
	r.mu.Lock()
	m := r.metrics
	r.mu.Unlock()
	m.Counter("fault_injected_total", "fault injections across all points").Inc()
	m.Counter(metricName(name), "injections at fault point "+name).Inc()
}

func metricName(point string) string {
	s := strings.NewReplacer(".", "_", "-", "_").Replace(point)
	return "fault_" + s + "_injected_total"
}

// Arm parses a fault spec (see the package comment for the grammar) and
// arms its points, adding to any already armed.
func Arm(spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := parsePoint(part)
		if err != nil {
			return err
		}
		ArmPoint(p)
	}
	return nil
}

// ArmPoint arms one configured point (programmatic API for tests).
func ArmPoint(p Point) {
	if p.Times == 0 && p.Mode != ModeDelay {
		// Error-like faults default to firing once: crash tests want one
		// deterministic failure, not a permanently broken subsystem.
		p.Times = 1
	}
	reg.mu.Lock()
	reg.points[p.Name] = &p
	// Pre-create the per-point counter so exposition lists it even before
	// the first injection (nil-safe when no registry is bound).
	reg.metrics.Counter(metricName(p.Name), "injections at fault point "+p.Name)
	reg.mu.Unlock()
	armed.Store(1)
}

func parsePoint(s string) (Point, error) {
	fields := strings.Split(s, ":")
	p := Point{Name: fields[0], Mode: ModeError}
	if p.Name == "" {
		return p, fmt.Errorf("fault: empty point name in %q", s)
	}
	for _, f := range fields[1:] {
		switch {
		case f == "error":
			p.Mode = ModeError
		case f == "panic":
			p.Mode = ModePanic
		case f == "torn":
			p.Mode = ModeTorn
		case strings.HasPrefix(f, "delay="):
			d, err := time.ParseDuration(strings.TrimPrefix(f, "delay="))
			if err != nil {
				return p, fmt.Errorf("fault: %s: bad delay %q", p.Name, f)
			}
			p.Mode = ModeDelay
			p.Delay = d
			if p.Times == 0 {
				p.Times = -1 // delays default to every hit
			}
		case strings.HasPrefix(f, "after="):
			n, err := strconv.ParseInt(strings.TrimPrefix(f, "after="), 10, 64)
			if err != nil || n < 0 {
				return p, fmt.Errorf("fault: %s: bad after %q", p.Name, f)
			}
			p.After = n
		case strings.HasPrefix(f, "times="):
			n, err := strconv.ParseInt(strings.TrimPrefix(f, "times="), 10, 64)
			if err != nil || n < 0 {
				return p, fmt.Errorf("fault: %s: bad times %q", p.Name, f)
			}
			if n == 0 {
				n = -1 // explicit times=0 means unlimited
			}
			p.Times = n
		case strings.HasPrefix(f, "p="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(f, "p="), 64)
			if err != nil || v <= 0 || v > 1 {
				return p, fmt.Errorf("fault: %s: bad probability %q", p.Name, f)
			}
			p.P = v
		default:
			return p, fmt.Errorf("fault: %s: unknown option %q", p.Name, f)
		}
	}
	return p, nil
}

// Disarm clears every armed point and restores the zero-cost path.
func Disarm() {
	reg.mu.Lock()
	reg.points = map[string]*Point{}
	reg.mu.Unlock()
	armed.Store(0)
}

// Seed reseeds the registry's PRNG, which p= points draw from; runs with
// the same seed and spec fire identically.
func Seed(n int64) {
	reg.mu.Lock()
	reg.rng = rand.New(rand.NewSource(n))
	reg.mu.Unlock()
}

// Hits returns the named point's probe count (0 if not armed).
func Hits(name string) int64 {
	p := reg.lookup(name)
	if p == nil {
		return 0
	}
	return atomic.LoadInt64(&p.hits)
}

// Fired returns how many times the named point actually injected.
func Fired(name string) int64 {
	p := reg.lookup(name)
	if p == nil {
		return 0
	}
	return atomic.LoadInt64(&p.fired)
}

// Snapshot returns per-point hit and fire counts, sorted by name.
type PointStats struct {
	Name  string
	Mode  Mode
	Hits  int64
	Fired int64
}

// Snapshot lists the armed points and their counters.
func Snapshot() []PointStats {
	reg.mu.Lock()
	out := make([]PointStats, 0, len(reg.points))
	for _, p := range reg.points {
		out = append(out, PointStats{
			Name:  p.Name,
			Mode:  p.Mode,
			Hits:  atomic.LoadInt64(&p.hits),
			Fired: atomic.LoadInt64(&p.fired),
		})
	}
	reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BindMetrics exports the fault subsystem through an obs registry: a
// fault_armed gauge, a fault_injected_total counter, and one counter per
// armed point (fault_<point>_injected_total). Call once at engine open;
// later Arm calls register their points on the same registry.
func BindMetrics(r *obs.Registry) {
	reg.mu.Lock()
	reg.metrics = r
	for name := range reg.points {
		r.Counter(metricName(name), "injections at fault point "+name)
	}
	reg.mu.Unlock()
	r.RegisterFunc("fault_armed", "1 when any fault point is armed", obs.TypeGauge,
		func() float64 {
			if Armed() {
				return 1
			}
			return 0
		})
}
