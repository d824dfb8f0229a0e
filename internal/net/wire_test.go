package anet

import (
	"bytes"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
)

func testFrame() []hyracks.Tuple {
	return []hyracks.Tuple{
		{adm.Int64(1), adm.String("alice")},
		{adm.Int64(2), adm.String("bob"), adm.Double(2.5)},
		{},
	}
}

func TestDataPayloadRoundTrip(t *testing.T) {
	ref := edgeRef{jobID: "q1#2", edge: 3}
	p := encodeDataPayload(nil, ref, 7, testFrame())
	gotRef, ch, frame, err := decodeDataPayload(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotRef != ref || ch != 7 {
		t.Fatalf("got ref=%+v ch=%d", gotRef, ch)
	}
	if len(frame) != 3 || len(frame[0]) != 2 || len(frame[1]) != 3 || len(frame[2]) != 0 {
		t.Fatalf("frame shape: %v", frame)
	}
	if frame[1][1].Kind() != adm.KindString {
		t.Fatalf("column type lost: %#v", frame[1][1])
	}
	if frame[0][0].Kind() != adm.KindInt64 || frame[0][0].(adm.Int64) != 1 {
		t.Fatalf("column value lost: %#v", frame[0][0])
	}
}

func TestCreditPayloadRoundTrip(t *testing.T) {
	p := encodeCreditPayload(nil, edgeRef{jobID: "j", edge: 1}, 4, 9)
	ref, ch, n, err := decodeCreditPayload(p)
	if err != nil || ref.jobID != "j" || ref.edge != 1 || ch != 4 || n != 9 {
		t.Fatalf("got %v %d %d err=%v", ref, ch, n, err)
	}
}

func TestMsgRoundTripAndCRC(t *testing.T) {
	payload := encodeDataPayload(nil, edgeRef{jobID: "j", edge: 0}, 0, testFrame())
	wire := appendMsg(nil, msgData, payload)
	typ, got, _, err := readMsg(bytes.NewReader(wire), nil)
	if err != nil || typ != msgData || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: typ=%d err=%v", typ, err)
	}
	// Flip one payload byte: the CRC must reject the frame.
	bad := append([]byte(nil), wire...)
	bad[headerLen+3] ^= 0x40
	if _, _, _, err := readMsg(bytes.NewReader(bad), nil); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt frame accepted: %v", err)
	}
	// Torn mid-payload: short read, never a hang or panic.
	if _, _, _, err := readMsg(bytes.NewReader(wire[:len(wire)/2]), nil); err == nil {
		t.Fatal("torn frame accepted")
	}
	// Bad magic.
	bad = append([]byte(nil), wire...)
	bad[0] = 0x00
	if _, _, _, err := readMsg(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Absurd length must be rejected before allocation.
	bad = append([]byte(nil), wire...)
	bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, _, err := readMsg(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// FuzzFrameDecode hammers the data-frame decoder with torn, mutated,
// and adversarial payloads: it must return an error or a well-formed
// frame, never panic or over-allocate (the length-vs-remaining checks).
func FuzzFrameDecode(f *testing.F) {
	f.Add(encodeDataPayload(nil, edgeRef{jobID: "q1#1", edge: 2}, 1, testFrame()))
	f.Add(encodeDataPayload(nil, edgeRef{jobID: "", edge: 0}, 0, nil))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, ch, frame, err := decodeDataPayload(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode to a decodable payload of
		// identical shape.
		re := encodeDataPayload(nil, ref, ch, frame)
		ref2, ch2, frame2, err := decodeDataPayload(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if ref2 != ref || ch2 != ch || len(frame2) != len(frame) {
			t.Fatalf("round trip drift: %v/%v %d/%d %d/%d", ref, ref2, ch, ch2, len(frame), len(frame2))
		}
	})
}
