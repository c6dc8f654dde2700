package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode drives the decoder with arbitrary bytes: it must never panic,
// and any message it accepts must re-encode to bytes that decode to the
// same message (canonicalisation round trip).
func FuzzDecode(f *testing.F) {
	seed := []Update{
		{Withdrawn: []WithdrawnRoute{{PathID: 1}}, Announced: []RouteRecord{{PathID: 2, TieBreak: -1}}},
		{},
		// Multi-prefix updates mixing announcements and withdrawals, the
		// shape the shared router core emits (one message per peer
		// coalescing every prefix).
		{
			Withdrawn: []WithdrawnRoute{{Prefix: 1, PathID: 0}, {Prefix: 2, PathID: 3}},
			Announced: []RouteRecord{
				{Prefix: 1, PathID: 1, LocalPref: 100, NextAS: 7, MED: 5, ExitPoint: 2, ExitCost: 30, NextHopID: 2001, TieBreak: -1},
				{Prefix: 2, PathID: 0, LocalPref: 100, NextAS: 9, MED: 0, ExitPoint: 0, ExitCost: 10, NextHopID: 2000, TieBreak: 4},
			},
		},
		{
			Withdrawn: []WithdrawnRoute{{Prefix: 0, PathID: 2}, {Prefix: 0, PathID: 1}, {Prefix: 3, PathID: 0}},
		},
		{
			Announced: []RouteRecord{
				{Prefix: 0, PathID: 0, TieBreak: -1},
				{Prefix: 0xffffffff, PathID: 0xffffffff, ExitPoint: 0xffffffff, ExitCost: ^uint64(0), TieBreak: -1 << 31},
			},
		},
	}
	for _, m := range seed {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Frames of the BGP-4 session types (OPEN, KEEPALIVE, NOTIFICATION),
	// which the format does not carry: rejected as ErrBadType.
	f.Add(rawMessage(1, make([]byte, 9)))
	f.Add(rawMessage(4, nil))
	f.Add(rawMessage(3, []byte{6, 1}))
	f.Add([]byte{})
	f.Add([]byte{'I', 'B', 'G', 'P', 0, 7, 4})
	// Hand-crafted UPDATEs whose declared record counts disagree with the
	// body length — truncated, oversized, and maximal lying counts. The
	// decoder must reject these without panicking or allocating from the
	// count (see TestDecodeUpdateCountVsBodyMismatch).
	f.Add(rawMessage(TypeUpdate, updateBody(4, make([]byte, withdrawnSize), 0, nil)))
	f.Add(rawMessage(TypeUpdate, updateBody(0xffff, nil, 0, nil)))
	f.Add(rawMessage(TypeUpdate, updateBody(0, nil, 0xffff, nil)))
	f.Add(rawMessage(TypeUpdate, updateBody(0, nil, 2, make([]byte, 2*routeRecordSize-1))))
	f.Add(rawMessage(TypeUpdate, updateBody(0, nil, 1, make([]byte, routeRecordSize+5))))
	f.Add(rawMessage(TypeUpdate, append(binary.BigEndian.AppendUint16(nil, 1), make([]byte, withdrawnSize)...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		re, err := Encode(msg)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		msg2, _, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		re2, err := Encode(msg2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical:\n%x\n%x", re, re2)
		}
	})
}
