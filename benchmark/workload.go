package main

import (
	"math/rand"

	"asterix/internal/core"
)

// Scale sizes a run. The full scale is what BENCHMARK.json's numbers are
// measured at; the smoke scale runs every workload end to end in a test.
type Scale struct {
	Name          string
	Users         int     // GleambookUsers records in the base load
	Messages      int     // GleambookMessages records in the base load
	IngestPreload int     // records the ingest set-up writes before timing
	Batch         int     // records per UPSERT statement
	WriterRate    float64 // htap: UPSERT statements per second
	Warm          int     // untimed runs of every op class in set-up
	Setups        int     // set-ups per run; setup_s is their median
	CrashTail     int     // statements written between the last checkpoint and the crash
	ProbeRecords  int     // records the adm probes encode and decode
	ProbeRows     int     // synthetic tuples of the stand-alone hyracks jobs
	ProbeKeys     int     // random keys of the lsm.get_us probe
	ProbeStmts    int     // statements replayed through parse and explain
}

var (
	fullScale = Scale{Name: "full", Users: 20000, Messages: 100000, IngestPreload: 20000,
		Batch: 20, WriterRate: 100, Warm: 1, Setups: 3, CrashTail: 100,
		ProbeRecords: 20000, ProbeRows: 100000, ProbeKeys: 20000, ProbeStmts: 200}
	smokeScale = Scale{Name: "smoke", Users: 300, Messages: 1500, IngestPreload: 400,
		Batch: 20, WriterRate: 100, Warm: 1, Setups: 1, CrashTail: 5,
		ProbeRecords: 300, ProbeRows: 2000, ProbeKeys: 300, ProbeStmts: 20}
)

// Workload describes one traffic mix. The engine never sees these names.
type Workload struct {
	Name string
	// Why is the reason the workload exists (README.md has the long form).
	Why string
	// Configure adjusts the engine configuration every workload starts from
	// (2 partitions, 2 nodes, NoSyncCommits).
	Configure func(c *core.Config)
	// Ingest makes set-up create the three secondary indexes first and
	// preload through the Writer; otherwise set-up bulk-loads users and
	// messages and then builds the authorId index.
	Ingest bool
	// Clients is the number of closed-loop clients, capped at nproc.
	Clients int
	// Classes lists the op classes, the one p50_ms reports first. A
	// closed-loop client whose Cycle is true issues them round-robin, and
	// p50_ms reports the latency of a whole round.
	Classes []string
	Cycle   bool
	// Source returns the op generator of one closed-loop client when the
	// classes are not cycled.
	Source func(e *Env, r *rand.Rand) func() Op
	// MixPeriod is the length of the cycle a Source repeats, 0 for none. A
	// traced run alternates whole periods between traced and untraced, so
	// that neither side gets more of one class than the other.
	MixPeriod int
	// OpenLoopWriter adds the htap writer: one open-loop client sending
	// UPSERT statements at Scale.WriterRate beside the closed-loop reader.
	OpenLoopWriter bool
}

func spillConfig(c *core.Config) {
	c.BufferPages = 256       // 2 MiB, about a tenth of the data
	c.WorkingMemory = 1 << 20 // sort, join and group-by must spill
	c.MemComponentBudget = 1 << 20
}

var analyticsClasses = []string{classScan, classGroup, classJoin, classSort}

// pointServeCycle is point_serve's mix: 70% idx, 15% range, 15% pk.
var pointServeCycle = []string{
	classIdx, classRange, classIdx, classPK, classIdx, classIdx, classIdx,
	classRange, classIdx, classIdx, classPK, classIdx, classIdx, classRange,
	classIdx, classIdx, classPK, classIdx, classIdx, classIdx,
}

// workloads lists the five workloads in the order they are reported.
var workloads = []*Workload{
	{
		Name:    "analytics_mem",
		Why:     "full scans (filter, group, join, sort) with all data cached and ample working memory: per-row CPU (LSM iterate, decode, eval, operators) does the work; parse, compile and HTTP are under 1%",
		Clients: 1, Classes: analyticsClasses, Cycle: true,
	},
	{
		Name:      "analytics_spill",
		Why:       "the same statements and data with a 2 MiB buffer cache and 1 MiB working memory: every page access misses and sort and join spill, so a gain that hurts the out-of-memory path of Fig. 2 shows",
		Configure: spillConfig,
		Clients:   1, Classes: analyticsClasses, Cycle: true,
	},
	{
		Name:    "point_serve",
		Why:     "2 closed-loop clients, 70% index lookups, 15% index ranges, 15% primary-key selects: HTTP, parse, compile and job start-up dominate, scan and decode do little",
		Clients: 2, Classes: []string{classIdx, classRange, classPK}, MixPeriod: len(pointServeCycle),
		Source: func(e *Env, r *rand.Rand) func() Op {
			users := e.scale.Users
			// The mix is a fixed cycle, 14 idx, 3 range and 3 pk in 20 ops,
			// and only the keys are random: a pk op takes fifty times an idx
			// op, so a mix drawn at random would move throughput by several
			// percent from seed to seed.
			i := r.Intn(len(pointServeCycle))
			return func() Op {
				class := pointServeCycle[i%len(pointServeCycle)]
				i++
				switch class {
				case classIdx:
					k := r.Intn(users)
					return Op{Class: classIdx, Stmt: idxStatement(k), Key: k}
				case classRange:
					k := r.Intn(users - rangeWidth)
					return Op{Class: classRange, Stmt: rangeStatement(k), Key: k}
				default:
					k := r.Intn(users)
					return Op{Class: classPK, Stmt: pkStatement(k), Key: k}
				}
			}
		},
	},
	{
		Name:      "ingest",
		Why:       "1 client upserting 20-record batches (a fifth overwrites) under B-tree, R-tree and keyword indexes with 1 MiB memory components: the write side of storage, adm and txn, flushes and merges included",
		Configure: func(c *core.Config) { c.MemComponentBudget = 1 << 20 },
		Ingest:    true,
		Clients:   1, Classes: []string{classUpsert},
		Source: func(e *Env, _ *rand.Rand) func() Op {
			return func() Op { return e.nextUpsert() }
		},
	},
	{
		Name:    "htap",
		Why:     "open-loop writer at 100 UPSERT statements/s beside a closed-loop reader alternating scan and group over a growing LSM (Fig. 7): a gain for scans that costs writes, or the reverse, shows in one run",
		Clients: 1, Classes: []string{classScan, classGroup, classUpsert}, Cycle: true,
		OpenLoopWriter: true,
	},
}

func findWorkload(name string) *Workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// period is the number of consecutive ops of a closed-loop client after
// which its class pattern repeats.
func (w *Workload) period() int {
	if w.Cycle {
		return len(w.readClasses())
	}
	return max(1, w.MixPeriod)
}

// readClasses are the classes a cycling closed-loop client issues.
func (w *Workload) readClasses() []string {
	var out []string
	for _, c := range w.Classes {
		if c != classUpsert {
			out = append(out, c)
		}
	}
	return out
}
