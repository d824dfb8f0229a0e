package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asterix/internal/obs"
)

// ErrLockTimeout marks a lock wait that exceeded the manager's timeout —
// a likely deadlock. It is retriable: the caller may abort and rerun the
// transaction (the server maps it to a retriable error code, not a 500).
var ErrLockTimeout = errors.New("lock wait timeout")

// LockManager grants exclusive record-level locks keyed by (dataset,
// primary-key bytes). Lock waits time out to break deadlocks (AsterixDB
// locks only primary keys for modifications, which with timeouts is
// sufficient for NoSQL-style single-record transactions and simple
// multi-record ones).
type LockManager struct {
	mu      sync.Mutex
	locks   map[string]*lockEntry
	Timeout time.Duration

	// Metric handles (nil-safe no-ops until BindMetrics).
	waits    *obs.Counter
	timeouts *obs.Counter
	waitSecs *obs.Histogram
}

// BindMetrics exports lock contention through an obs registry: how many
// acquisitions blocked, how many timed out, and a wait-time histogram.
func (lm *LockManager) BindMetrics(r *obs.Registry) {
	lm.waits = r.Counter("txn_lock_waits_total", "lock acquisitions that blocked on a held lock")
	lm.timeouts = r.Counter("txn_lock_timeouts_total", "lock waits that hit the deadlock timeout")
	lm.waitSecs = r.Histogram("txn_lock_wait_seconds", "time spent waiting for record locks", nil)
}

type lockEntry struct {
	owner   int64
	waiters int
	cond    *sync.Cond
}

// NewLockManager creates a lock manager with the given wait timeout.
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &LockManager{locks: make(map[string]*lockEntry), Timeout: timeout}
}

func lockName(dataset string, key []byte) string {
	return dataset + "\x00" + string(key)
}

// Lock acquires the exclusive lock on (dataset, key) for txnID, waiting up
// to the timeout. Re-acquiring a held lock is a no-op.
func (lm *LockManager) Lock(txnID int64, dataset string, key []byte) error {
	return lm.lock(txnID, dataset, key, nil)
}

// lock is Lock with wait-time attribution: blocked time lands on sp's
// WaitLock category (nil-safe) in addition to the registry histogram.
func (lm *LockManager) lock(txnID int64, dataset string, key []byte, sp *obs.Span) error {
	name := lockName(dataset, key)
	deadline := time.Now().Add(lm.Timeout)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	e, ok := lm.locks[name]
	if !ok {
		e = &lockEntry{owner: txnID}
		e.cond = sync.NewCond(&lm.mu)
		lm.locks[name] = e
		return nil
	}
	if e.owner == txnID {
		return nil
	}
	var waitStart time.Time
	for e.owner != 0 {
		if waitStart.IsZero() {
			waitStart = time.Now()
			lm.waits.Inc()
		}
		if time.Now().After(deadline) {
			lm.timeouts.Inc()
			lm.waitSecs.Observe(time.Since(waitStart).Seconds())
			sp.AddWait(obs.WaitLock, time.Since(waitStart))
			return fmt.Errorf("txn %d: %w on %s (held by txn %d) — possible deadlock", txnID, ErrLockTimeout, dataset, e.owner)
		}
		e.waiters++
		// Timed wait: poll via a helper goroutine waking the cond.
		done := make(chan struct{})
		go func() {
			select {
			case <-time.After(50 * time.Millisecond):
				lm.mu.Lock()
				e.cond.Broadcast()
				lm.mu.Unlock()
			case <-done:
			}
		}()
		e.cond.Wait()
		close(done)
		e.waiters--
	}
	if !waitStart.IsZero() {
		lm.waitSecs.Observe(time.Since(waitStart).Seconds())
		sp.AddWait(obs.WaitLock, time.Since(waitStart))
	}
	e.owner = txnID
	return nil
}

// UnlockAll releases every lock held by txnID.
func (lm *LockManager) UnlockAll(txnID int64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for name, e := range lm.locks {
		if e.owner == txnID {
			e.owner = 0
			if e.waiters > 0 {
				e.cond.Broadcast()
			} else {
				delete(lm.locks, name)
			}
		}
	}
}

// Manager coordinates transactions: ids, the WAL, and locks.
type Manager struct {
	Log   *LogManager
	Locks *LockManager
	// NoSync skips the fsync at commit (group-commit stand-in for
	// benchmarks; updates are still WAL-ordered and recoverable from any
	// in-process crash).
	NoSync bool

	mu     sync.Mutex
	nextID int64
	// checkpointLSN is the redo start point recorded by the last
	// checkpoint.
	checkpointLSN int64

	// Lifecycle counters (atomic).
	begins  int64
	commits int64
	aborts  int64
}

// Stats is an atomic snapshot of transaction lifecycle counters.
type Stats struct {
	Begins  int64
	Commits int64
	Aborts  int64
}

// Stats snapshots the manager's counters; safe to call concurrently with
// running transactions.
func (m *Manager) Stats() Stats {
	return Stats{
		Begins:  atomic.LoadInt64(&m.begins),
		Commits: atomic.LoadInt64(&m.commits),
		Aborts:  atomic.LoadInt64(&m.aborts),
	}
}

// NewManager builds a transaction manager over an opened log.
func NewManager(log *LogManager) *Manager {
	return &Manager{Log: log, Locks: NewLockManager(0), nextID: 1}
}

// Txn is one transaction's handle.
type Txn struct {
	ID  int64
	mgr *Manager
	// span receives wait-time attribution (lock waits) for the statement
	// this transaction serves; nil outside traced requests.
	span *obs.Span
	// done guards against double commit/abort.
	done bool
}

// AttachSpan routes the transaction's lock-wait time to a query span
// (nil-safe; attribution only, no behavior change). Returns t for
// chaining off Begin.
func (t *Txn) AttachSpan(sp *obs.Span) *Txn {
	t.span = sp
	return t
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	m.mu.Unlock()
	atomic.AddInt64(&m.begins, 1)
	return &Txn{ID: id, mgr: m}
}

// LogUpdates write-ahead-logs a statement's mutations of one dataset — the
// incarnation inc of the dataset called dataset — each given by its
// Partition, Op, Key and Value: it locks every key, then appends all the
// update records with one write (one per walChunk). The caller applies the
// changes only after this returns.
func (t *Txn) LogUpdates(dataset string, inc int64, ups []LogRecord) error {
	if t.done {
		return fmt.Errorf("txn %d: already finished", t.ID)
	}
	for i := range ups {
		if err := t.mgr.Locks.lock(t.ID, dataset, ups[i].Key, t.span); err != nil {
			return err
		}
		ups[i].Type, ups[i].TxnID, ups[i].Incarnation = RecUpdate, t.ID, inc
	}
	return t.mgr.Log.Append(ups...)
}

// Commit writes the commit record, syncs the log, and releases locks.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("txn %d: already finished", t.ID)
	}
	t.done = true
	if err := t.mgr.Log.Append(LogRecord{Type: RecCommit, TxnID: t.ID}); err != nil {
		return err
	}
	if !t.mgr.NoSync {
		if err := t.mgr.Log.Sync(); err != nil {
			return err
		}
	}
	t.mgr.Locks.UnlockAll(t.ID)
	atomic.AddInt64(&t.mgr.commits, 1)
	return nil
}

// Abort writes an abort record and releases locks. With redo-only logging
// and no-steal memory components, aborted updates are simply never redone;
// the caller must not have applied them to visible state (core applies
// updates only at commit for multi-statement transactions, or uses
// single-statement auto-commit).
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	if err := t.mgr.Log.Append(LogRecord{Type: RecAbort, TxnID: t.ID}); err != nil {
		return err
	}
	t.mgr.Locks.UnlockAll(t.ID)
	atomic.AddInt64(&t.mgr.aborts, 1)
	return nil
}

// Checkpoint records that all memory components below the current log end
// have been flushed; recovery will start redo from this point.
func (m *Manager) Checkpoint() error {
	safe := m.Log.Size()
	if err := m.Log.Append(LogRecord{Type: RecCheckpoint, SafeLSN: safe}); err != nil {
		return err
	}
	if err := m.Log.Sync(); err != nil {
		return err
	}
	m.mu.Lock()
	m.checkpointLSN = safe
	m.mu.Unlock()
	return nil
}

// Recover replays committed updates since the last checkpoint, calling
// apply for each in log order. It returns the number of records redone.
// Pass 1 reads the whole log: the last checkpoint, the committed
// transactions, the highest transaction id, and where the last whole record
// ends — a torn tail (crash mid-append) behind it is truncated before redo,
// so post-recovery appends land at a reachable offset, never stranded
// behind garbage. Pass 2 redoes from the checkpoint.
func (m *Manager) Recover(apply func(rec *LogRecord) error) (int, error) {
	committed := map[int64]bool{}
	start, maxID := int64(0), int64(0)
	validEnd, err := m.Log.scan(0, func(rec *LogRecord) bool {
		switch rec.Type {
		case RecCheckpoint:
			start = rec.SafeLSN
		case RecCommit:
			committed[rec.TxnID] = true
		}
		maxID = max(maxID, rec.TxnID)
		return true
	})
	if err != nil {
		return 0, err
	}
	if err := m.Log.truncate(validEnd); err != nil {
		return 0, err
	}
	redone := 0
	var applyErr error
	err = m.Log.Scan(start, func(rec *LogRecord) bool {
		if rec.Type == RecUpdate && committed[rec.TxnID] {
			if e := apply(rec); e != nil {
				applyErr = e
				return false
			}
			redone++
		}
		return true
	})
	if err != nil {
		return redone, err
	}
	if applyErr != nil {
		return redone, applyErr
	}
	// Resume id assignment past every id the log holds: an aborted or
	// unfinished transaction's id reused would make its updates the new
	// transaction's, and the new commit would redo them.
	m.mu.Lock()
	m.nextID = max(m.nextID, maxID+1)
	m.mu.Unlock()
	return redone, nil
}
