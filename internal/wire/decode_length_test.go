package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

// rawMessage frames an arbitrary body under a well-formed header so tests
// can hand-craft bodies the encoder would refuse to produce.
func rawMessage(typ byte, body []byte) []byte {
	buf := append([]byte(nil), Marker[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(headerSize+len(body)))
	buf = append(buf, typ)
	return append(buf, body...)
}

// updateBody assembles an UPDATE body with explicit (possibly lying)
// withdrawn and announced counts over raw record bytes.
func updateBody(nw uint16, withdrawn []byte, na uint16, announced []byte) []byte {
	body := binary.BigEndian.AppendUint16(nil, nw)
	body = append(body, withdrawn...)
	body = binary.BigEndian.AppendUint16(body, na)
	return append(body, announced...)
}

// TestDecodeUpdateCountVsBodyMismatch is the regression suite for declared
// record counts disagreeing with the actual body length: every mismatch —
// truncated body, oversized body, hostile maximal count — must come back as
// ErrBadLength, never a partial parse or a panic.
func TestDecodeUpdateCountVsBodyMismatch(t *testing.T) {
	oneWithdrawn := make([]byte, withdrawnSize)
	oneAnnounced := make([]byte, routeRecordSize)

	cases := []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"body shorter than withdrawn count field", []byte{0}},
		{"withdrawn count exceeds body", updateBody(4, oneWithdrawn, 0, nil)},
		{"withdrawn count maximal, tiny body", updateBody(0xffff, oneWithdrawn, 0, nil)},
		{"withdrawn records eat announced count", updateBody(1, oneWithdrawn[:withdrawnSize-1], 0, nil)[:2+withdrawnSize-1+1]},
		{"missing announced count", append(binary.BigEndian.AppendUint16(nil, 1), oneWithdrawn...)},
		{"announced count exceeds body", updateBody(0, nil, 3, oneAnnounced)},
		{"announced count maximal, tiny body", updateBody(0, nil, 0xffff, oneAnnounced)},
		{"announced body truncated mid-record", updateBody(0, nil, 2, make([]byte, 2*routeRecordSize-1))},
		{"announced body oversized for count", updateBody(0, nil, 1, make([]byte, routeRecordSize+5))},
		{"trailing garbage after records", updateBody(1, oneWithdrawn, 1, append(append([]byte(nil), oneAnnounced...), 0xee))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := rawMessage(TypeUpdate, tc.body)
			msg, n, err := Decode(data)
			if !errors.Is(err, ErrBadLength) {
				t.Fatalf("Decode = (%v, %d, %v), want ErrBadLength", msg, n, err)
			}
			if msg.Withdrawn != nil || msg.Announced != nil {
				t.Fatalf("partial message returned alongside error: %+v", msg)
			}
		})
	}
}

// TestDecodeHostileCountAllocation asserts the decoder never sizes an
// allocation from a declared count before checking it against the body:
// rejecting a maximal lying count must not allocate at all.
func TestDecodeHostileCountAllocation(t *testing.T) {
	hostile := [][]byte{
		rawMessage(TypeUpdate, updateBody(0xffff, nil, 0, nil)),
		rawMessage(TypeUpdate, updateBody(0, nil, 0xffff, nil)),
		rawMessage(TypeUpdate, updateBody(0xffff, make([]byte, withdrawnSize), 0xffff, make([]byte, routeRecordSize))),
	}
	for _, data := range hostile {
		data := data
		if _, _, err := Decode(data); !errors.Is(err, ErrBadLength) {
			t.Fatalf("hostile count: err = %v, want ErrBadLength", err)
		}
		allocs := testing.AllocsPerRun(200, func() { Decode(data) })
		if allocs > 0 {
			t.Errorf("rejecting hostile count allocated %.1f times per run, want 0", allocs)
		}
	}
}
