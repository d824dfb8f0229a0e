// Package anet is the TCP frame transport behind the hyracks Transport
// interface: a length-prefixed, CRC-checked message protocol carrying
// data frames, per-channel credit grants and end-of-stream markers
// between the nodes of one process. AttachLoopback gives every node of a
// hyracks.Cluster its own Peer on 127.0.0.1 and dials one connection in
// each direction between every pair, so a job's frames between nodes
// cross real sockets. A peer only writes its outbound connections and
// only reads its inbound ones; a write that fails resets the connection,
// and the next send dials again. Node death is the cluster's to signal
// (Loopback.Kill). The package owns per-frame write deadlines and the
// network fault points (net.drop, net.delay, net.partition,
// net.conn.reset).
//
// The package is named anet so importers are never ambiguous against
// the stdlib net package it is built on.
package anet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
)

// Wire format: every message is a 12-byte header followed by a payload.
//
//	offset  size  field
//	0       2     magic 0xA5 0x7E
//	2       1     message type
//	3       1     flags (reserved, 0)
//	4       4     payload length, big-endian
//	8       4     CRC-32C (Castagnoli) of the payload, big-endian
//
// The CRC is over the payload only: a torn or corrupted frame fails the
// check and the connection is reset — a frame is either delivered whole
// or the stream breaks, never silently truncated.
const (
	headerLen  = 12
	magic0     = 0xA5
	magic1     = 0x7E
	maxPayload = 64 << 20 // hard cap: reject absurd lengths before allocating
)

// Message types.
const (
	msgHello  = byte(1) // payload: sender node id (raw bytes)
	msgData   = byte(3) // payload: jobID, edge, channel, tuple frame
	msgEOS    = byte(4) // payload: jobID, edge — one producer finished the edge
	msgCredit = byte(5) // payload: jobID, edge, channel, n — consumer window return
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendMsg appends a framed message (header + payload) to buf.
func appendMsg(buf []byte, typ byte, payload []byte) []byte {
	var h [headerLen]byte
	h[0], h[1] = magic0, magic1
	h[2] = typ
	binary.BigEndian.PutUint32(h[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(h[8:12], crc32.Checksum(payload, crcTable))
	buf = append(buf, h[:]...)
	return append(buf, payload...)
}

// readMsg reads one framed message, validating magic, length bound, and
// payload CRC. A validation failure is a protocol error: the caller must
// reset the connection (the stream can no longer be trusted).
//
// The payload decodes into scratch when it fits (one allocation per
// high-water mark instead of one per message), and the possibly-grown
// scratch is returned for the connection's next read. The payload
// therefore ALIASES scratch — it is valid only until the next readMsg on
// the same scratch, so the caller must fully consume or copy it first.
// Data frames qualify (adm.Decode copies string and binary bytes out of
// the payload); control payloads that outlive the dispatch must be
// copied.
func readMsg(r io.Reader, scratch []byte) (typ byte, payload, next []byte, err error) {
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, scratch, err
	}
	if h[0] != magic0 || h[1] != magic1 {
		return 0, nil, scratch, fmt.Errorf("anet: bad magic %02x%02x", h[0], h[1])
	}
	n := binary.BigEndian.Uint32(h[4:8])
	if n > maxPayload {
		return 0, nil, scratch, fmt.Errorf("anet: payload length %d exceeds cap", n)
	}
	if uint32(cap(scratch)) >= n {
		payload = scratch[:n]
	} else {
		payload = make([]byte, n)
		scratch = payload[:0]
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, scratch, fmt.Errorf("anet: short payload: %w", err)
	}
	want := binary.BigEndian.Uint32(h[8:12])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return 0, nil, scratch, fmt.Errorf("anet: payload CRC mismatch (got %08x want %08x)", got, want)
	}
	return h[2], payload, scratch, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(p []byte) (string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return "", nil, fmt.Errorf("anet: bad string length")
	}
	return string(p[w : w+int(n)]), p[w+int(n):], nil
}

func readUvarint(p []byte) (uint64, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return 0, nil, fmt.Errorf("anet: bad uvarint")
	}
	return n, p[w:], nil
}

// edgeRef is the (job attempt, edge) address shared by data, EOS, and
// credit payloads.
type edgeRef struct {
	jobID string
	edge  int
}

func appendEdgeRef(buf []byte, ref edgeRef) []byte {
	buf = appendString(buf, ref.jobID)
	return binary.AppendUvarint(buf, uint64(ref.edge))
}

func readEdgeRef(p []byte) (edgeRef, []byte, error) {
	var ref edgeRef
	var err error
	if ref.jobID, p, err = readString(p); err != nil {
		return ref, nil, err
	}
	e, p, err := readUvarint(p)
	if err != nil {
		return ref, nil, err
	}
	ref.edge = int(e)
	return ref, p, nil
}

// encodeDataPayload serializes one frame for a (job, edge, channel):
// edge ref, channel, tuple count, then each tuple as a column count
// followed by binary ADM values.
func encodeDataPayload(buf []byte, ref edgeRef, ch int, frame []hyracks.Tuple) []byte {
	buf = appendEdgeRef(buf, ref)
	buf = binary.AppendUvarint(buf, uint64(ch))
	buf = binary.AppendUvarint(buf, uint64(len(frame)))
	for _, t := range frame {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		for _, v := range t {
			buf = adm.Encode(buf, v)
		}
	}
	return buf
}

// decodeDataPayload is the inverse of encodeDataPayload. It validates
// every length against the remaining input, so truncated or fuzzed
// payloads fail with an error instead of panicking or over-allocating.
// Decoded values never alias p — adm.Decode copies string and binary
// bytes — so the payload buffer may be reused immediately.
func decodeDataPayload(p []byte) (ref edgeRef, ch int, frame []hyracks.Tuple, err error) {
	if ref, p, err = readEdgeRef(p); err != nil {
		return ref, 0, nil, err
	}
	c, p, err := readUvarint(p)
	if err != nil {
		return ref, 0, nil, err
	}
	ch = int(c)
	n, p, err := readUvarint(p)
	if err != nil {
		return ref, 0, nil, err
	}
	if n > uint64(len(p)) { // each tuple needs ≥ 1 byte
		return ref, 0, nil, fmt.Errorf("anet: frame claims %d tuples in %d bytes", n, len(p))
	}
	frame = make([]hyracks.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		cols, rest, err := readUvarint(p)
		if err != nil {
			return ref, 0, nil, err
		}
		p = rest
		if cols > uint64(len(p)) {
			return ref, 0, nil, fmt.Errorf("anet: tuple claims %d columns in %d bytes", cols, len(p))
		}
		t := make(hyracks.Tuple, 0, cols)
		for j := uint64(0); j < cols; j++ {
			v, w, err := adm.Decode(p)
			if err != nil {
				return ref, 0, nil, fmt.Errorf("anet: tuple value: %w", err)
			}
			t = append(t, v)
			p = p[w:]
		}
		frame = append(frame, t)
	}
	if len(p) != 0 {
		return ref, 0, nil, fmt.Errorf("anet: %d trailing bytes after frame", len(p))
	}
	return ref, ch, frame, nil
}

// encodeCreditPayload serializes a credit return for (job, edge,
// channel): n frames of window handed back to the sender.
func encodeCreditPayload(buf []byte, ref edgeRef, ch, n int) []byte {
	buf = appendEdgeRef(buf, ref)
	buf = binary.AppendUvarint(buf, uint64(ch))
	return binary.AppendUvarint(buf, uint64(n))
}

func decodeCreditPayload(p []byte) (ref edgeRef, ch, n int, err error) {
	if ref, p, err = readEdgeRef(p); err != nil {
		return ref, 0, 0, err
	}
	c, p, err := readUvarint(p)
	if err != nil {
		return ref, 0, 0, err
	}
	cr, p, err := readUvarint(p)
	if err != nil {
		return ref, 0, 0, err
	}
	if len(p) != 0 {
		return ref, 0, 0, fmt.Errorf("anet: %d trailing bytes after credit", len(p))
	}
	return ref, int(c), int(cr), nil
}
