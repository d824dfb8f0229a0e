// Package txn provides AsterixDB-style "NoSQL transactions": record-level
// atomicity and durability via a redo-only write-ahead log, exclusive
// record locks on primary keys for modifications, and crash recovery that
// replays committed updates into LSM memory components (feature 9 of the
// paper's system overview; its importance to productization is Section
// VII's hardening story).
package txn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"asterix/internal/fault"
)

// RecordType tags log records.
type RecordType uint8

// Log record types, numbered as the log stores them. A RecUpdate names its
// dataset by incarnation and carries the value as the dataset stores it.
const (
	RecCommit RecordType = iota + 2
	RecAbort
	RecCheckpoint
	RecUpdate
)

// walChunk is the most of a batch of records one write system call
// carries, scanBuffer the read-ahead of a log scan.
const walChunk, scanBuffer = 1 << 20, 256 << 10

// Op is the logged mutation kind.
type Op uint8

// Mutation kinds.
const (
	OpUpsert Op = iota + 1
	OpDelete
)

// LogRecord is one entry in the WAL.
type LogRecord struct {
	LSN   int64 // byte offset in the log (assigned by Append)
	Type  RecordType
	TxnID int64
	// Incarnation is, for a RecUpdate, the dataset's incarnation.
	Incarnation int64
	Partition   int32
	Op          Op
	Key         []byte
	Value       []byte
	// SafeLSN is, for checkpoints, the LSN from which redo must start.
	SafeLSN int64
}

// LogManager is an append-only, checksummed write-ahead log.
type LogManager struct {
	mu   sync.Mutex
	f    *os.File
	size int64
	path string
	// wedged is set after an injected torn write: the simulated process
	// died mid-append, so the log refuses further writes until the torn
	// tail is repaired (truncate) by a reopen/recovery.
	wedged bool
	// tornTails counts torn or corrupt tails detected by scans; writes and
	// written the write system calls appends issued and their bytes.
	tornTails, writes, written atomic.Int64
}

// OpenLog opens (creating if needed) the log file at dir/txn.log.
func OpenLog(dir string) (*LogManager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "txn.log")
	// O_APPEND: writes always land at EOF, so a reopened log appends after
	// the surviving records (and after recovery truncates a torn tail,
	// the next append lands exactly at the repaired end).
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("txn: open log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &LogManager{f: f, size: st.Size(), path: path}, nil
}

// Close closes the log file.
func (lm *LogManager) Close() error { return lm.f.Close() }

// Size returns the current log size (the next LSN).
func (lm *LogManager) Size() int64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.size
}

// Append writes records, back to back in the order given, and sets their
// LSNs: with one write system call per walChunk of them, so that a
// statement's updates cost one write, not one each.
func (lm *LogManager) Append(recs ...LogRecord) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.wedged {
		return fmt.Errorf("txn: append: log wedged after torn write")
	}
	for len(recs) > 0 {
		var buf []byte
		for len(recs) > 0 && len(buf) < walChunk {
			recs[0].LSN = lm.size + int64(len(buf))
			buf = appendFramed(buf, &recs[0])
			recs = recs[1:]
		}
		if frag, torn := fault.Tear(fault.PointWALAppend, buf); torn {
			// Simulated crash mid-write: a prefix of the records reaches the
			// file and the "process" dies — the log wedges so nothing (not
			// even an abort record) can land after the torn fragment. Only
			// recovery (truncate) unwedges it.
			//lint:ignore lock-held,err-discard serialized WAL write of a torn fragment that is garbage by construction; recovery truncates it regardless
			_, _ = lm.f.Write(frag)
			lm.wedged = true
			return fmt.Errorf("txn: append: %w", fault.ErrInjected)
		}
		//lint:ignore lock-held WAL ordering: appends must be serialized under mu so LSNs match file offsets
		if _, err := lm.f.Write(buf); err != nil {
			return fmt.Errorf("txn: append: %w", err)
		}
		lm.size += int64(len(buf))
		lm.writes.Add(1)
		lm.written.Add(int64(len(buf)))
	}
	return nil
}

// Sync forces the log to stable storage (called at commit when
// durability is requested).
func (lm *LogManager) Sync() error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.wedged {
		return fmt.Errorf("txn: sync: log wedged after torn write")
	}
	if err := fault.Hit(fault.PointWALSync); err != nil {
		return fmt.Errorf("txn: sync: %w", err)
	}
	//lint:ignore lock-held group commit: syncing under mu lets concurrent committers share one fsync
	return lm.f.Sync()
}

// TornTails returns how many torn or corrupt log tails scans have
// detected over this manager's lifetime.
func (lm *LogManager) TornTails() int64 { return lm.tornTails.Load() }

// Writes returns how many write system calls appends have issued over this
// manager's lifetime, and how many bytes they wrote.
func (lm *LogManager) Writes() (calls, bytes int64) {
	return lm.writes.Load(), lm.written.Load()
}

// appendFramed appends r as it lies in the log: its body's length and
// checksum, then the body.
func appendFramed(buf []byte, r *LogRecord) []byte {
	at := len(buf)
	buf = append(slices.Grow(buf, 40+len(r.Key)+len(r.Value)), make([]byte, 8)...)
	buf = append(buf, byte(r.Type))
	buf = binary.AppendVarint(buf, r.TxnID)
	buf = binary.AppendUvarint(buf, uint64(r.Incarnation))
	buf = binary.AppendVarint(buf, int64(r.Partition))
	buf = append(buf, byte(r.Op))
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
	buf = append(buf, r.Value...)
	buf = binary.AppendVarint(buf, r.SafeLSN)
	body := buf[at+8:]
	binary.BigEndian.PutUint32(buf[at:], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(body))
	return buf
}

func decodeRecord(body []byte) (*LogRecord, error) {
	r := &LogRecord{}
	if len(body) < 2 {
		return nil, fmt.Errorf("txn: short record")
	}
	r.Type = RecordType(body[0])
	pos := 1
	v, n := binary.Varint(body[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("txn: corrupt record")
	}
	r.TxnID = v
	pos += n
	l, n := binary.Uvarint(body[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("txn: corrupt record")
	}
	r.Incarnation = int64(l)
	pos += n
	v, n = binary.Varint(body[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("txn: corrupt record")
	}
	r.Partition = int32(v)
	pos += n
	if pos >= len(body) {
		return nil, fmt.Errorf("txn: corrupt record")
	}
	r.Op = Op(body[pos])
	pos++
	l, n = binary.Uvarint(body[pos:])
	if n <= 0 || pos+n+int(l) > len(body) {
		return nil, fmt.Errorf("txn: corrupt record")
	}
	pos += n
	r.Key = append([]byte(nil), body[pos:pos+int(l)]...)
	pos += int(l)
	l, n = binary.Uvarint(body[pos:])
	if n <= 0 || pos+n+int(l) > len(body) {
		return nil, fmt.Errorf("txn: corrupt record")
	}
	pos += n
	r.Value = append([]byte(nil), body[pos:pos+int(l)]...)
	pos += int(l)
	v, n = binary.Varint(body[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("txn: corrupt record")
	}
	r.SafeLSN = v
	return r, nil
}

// Scan reads records from the given LSN to the end, stopping cleanly at a
// torn tail (a partial record after a crash is ignored, never surfaced as
// an error that would abort recovery).
func (lm *LogManager) Scan(fromLSN int64, fn func(rec *LogRecord) bool) error {
	_, err := lm.scan(fromLSN, fn)
	return err
}

// scan walks whole, checksummed records from fromLSN and returns the
// offset just past the last one — the valid end of the log. Anything
// after that offset (a partial header, a short body, a checksum mismatch,
// or an undecodable record) is a torn tail: the scan ends there, the
// torn-tail counter ticks, and no error is returned. It reads the log
// front to back through one read-ahead buffer.
func (lm *LogManager) scan(fromLSN int64, fn func(rec *LogRecord) bool) (int64, error) {
	lm.mu.Lock()
	size := lm.size
	lm.mu.Unlock()
	r := bufio.NewReaderSize(io.NewSectionReader(lm.f, fromLSN, size-fromLSN), scanBuffer)
	pos := fromLSN
	var hdr [8]byte
	var body []byte
	for pos < size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return lm.tornAt(pos, err)
		}
		bl := int64(binary.BigEndian.Uint32(hdr[0:]))
		if pos+8+bl > size {
			lm.noteTornTail()
			return pos, nil
		}
		body = slices.Grow(body[:0], int(bl))[:bl]
		if _, err := io.ReadFull(r, body); err != nil {
			return lm.tornAt(pos, err)
		}
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(hdr[4:]) {
			lm.noteTornTail()
			return pos, nil
		}
		rec, err := decodeRecord(body)
		if err != nil {
			// Checksummed but undecodable: treat like a torn tail rather
			// than failing recovery — everything before pos is intact.
			lm.noteTornTail()
			return pos, nil
		}
		rec.LSN = pos
		if !fn(rec) {
			return pos, nil
		}
		pos += 8 + bl
	}
	return pos, nil
}

// tornAt ends a scan whose read at pos failed: short is a torn tail.
func (lm *LogManager) tornAt(pos int64, err error) (int64, error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		lm.noteTornTail()
		return pos, nil
	}
	return pos, err
}

func (lm *LogManager) noteTornTail() { lm.tornTails.Add(1) }

// truncate cuts the log at validEnd, the end of its last whole record as
// recovery's first scan found it, so that post-recovery appends land at an
// offset future scans can reach, and unwedges it.
func (lm *LogManager) truncate(validEnd int64) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	// Stat rather than lm.size: an injected torn write reaches the file
	// without ever advancing the in-memory size.
	//lint:ignore lock-held cold recovery path; the tail must not move between measuring and truncating
	st, err := lm.f.Stat()
	if err != nil {
		return fmt.Errorf("txn: repair tail: %w", err)
	}
	if st.Size() > validEnd {
		//lint:ignore lock-held truncation must be atomic with respect to concurrent appends
		if err := lm.f.Truncate(validEnd); err != nil {
			return fmt.Errorf("txn: repair tail: %w", err)
		}
		lm.size = validEnd
	}
	lm.wedged = false
	return nil
}
