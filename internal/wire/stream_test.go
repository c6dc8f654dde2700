package wire_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/bgp4"
)

// The speakers read their sessions' message streams with
// bgp4.Session.ReadMessage, the one reader of wire.Message streams. These
// are its stream-level regressions: each runs over a synchronous net.Pipe
// against a scripted peer that completes the OPEN exchange, writes the
// stream under test and closes its end.

const streamAS = 64512

// establishedReader returns a session established against the scripted
// peer, ready to read stream.
func establishedReader(tb testing.TB, stream []byte) *bgp4.Session {
	tb.Helper()
	local, remote := net.Pipe()
	established, done := make(chan struct{}), make(chan struct{})
	// Closing our end unblocks a peer still writing; then wait for it.
	tb.Cleanup(func() { local.Close(); <-done })
	go func() {
		defer close(done)
		defer remote.Close()
		// Both ends of Establish write before they read, which a
		// synchronous pipe cannot carry, so the peer is scripted: take the
		// OPEN, answer, take the KEEPALIVE, answer.
		if readPeerFrame(remote) != nil {
			return
		}
		open := bgp4.AppendOpen(nil, bgp4.Open{AS: streamAS, BGPID: 2, NodeID: 2})
		if _, err := remote.Write(open); err != nil {
			return
		}
		if readPeerFrame(remote) != nil {
			return
		}
		if _, err := remote.Write(bgp4.AppendKeepalive(nil)); err != nil {
			return
		}
		// Closing before Establish has cleared its handshake deadline
		// would fail it.
		<-established
		if len(stream) > 0 {
			remote.Write(stream)
		}
	}()
	s := bgp4.NewSession(bgp4.SessionConfig{LocalAS: streamAS, LocalID: 1, NodeID: 1, ClusterID: 1})
	err := s.Establish(local)
	close(established)
	if err != nil {
		tb.Fatalf("Establish: %v", err)
	}
	return s
}

// readPeerFrame consumes one whole frame on the scripted peer's end.
func readPeerFrame(c net.Conn) error {
	hdr := make([]byte, bgp4.HeaderSize)
	if _, err := io.ReadFull(c, hdr); err != nil {
		return err
	}
	_, total, err := bgp4.ParseHeader(hdr)
	if err != nil {
		return err
	}
	_, err = io.ReadFull(c, make([]byte, total-bgp4.HeaderSize))
	return err
}

// encodeUpdate frames u the way the scripted peer's speaker would.
func encodeUpdate(u wire.Update) []byte {
	enc := bgp4.UpdateEncoder{LocalID: 2, ClusterID: 2}
	return enc.Append(nil, &u)
}

// wantHeaderError fails unless err is a message-header NOTIFICATION error
// with the given subcode (RFC 4271 §6.1).
func wantHeaderError(t *testing.T, err error, subcode uint8) {
	t.Helper()
	var me *bgp4.MessageError
	if !errors.As(err, &me) || me.Code != bgp4.NotifMessageHeader || me.Subcode != subcode {
		t.Fatalf("err = %v, want header error 1/%d", err, subcode)
	}
}

// wantCutShort fails unless err reports a frame severed by the end of the
// stream. It must not be io.EOF: the speaker's readLoop takes io.EOF for a
// clean close and anything else for corruption.
func wantCutShort(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReaderErrorPaths is the regression suite for the stream reader's
// failure modes: each corruption must come back as its own error — never
// a partial message, never a clean EOF masking a cut-off frame — because
// the speaker's readLoop classifies teardown causes (clean close vs
// corrupt frame) from exactly these errors.
func TestReaderErrorPaths(t *testing.T) {
	valid := encodeUpdate(wire.Update{Announced: []wire.RouteRecord{{Prefix: 1, PathID: 2, LocalPref: 100, ExitPoint: 2, NextHopID: 2}}})
	with := func(mutate func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		mutate(d)
		return d
	}
	lenAt := bgp4.MarkerSize // the header's 2-octet length field
	cases := []struct {
		name   string
		stream []byte
		check  func(t *testing.T, err error)
	}{
		{"empty stream is clean EOF", nil, func(t *testing.T, err error) {
			if err != io.EOF {
				t.Fatalf("err = %v, want io.EOF", err)
			}
		}},
		{"truncated header", valid[:3], wantCutShort},
		{"header cut at last octet", valid[:bgp4.HeaderSize-1], wantCutShort},
		{"truncated body", valid[:len(valid)-1], wantCutShort},
		{"body cut right after header", valid[:bgp4.HeaderSize], wantCutShort},
		{"declared length below header size", with(func(d []byte) {
			binary.BigEndian.PutUint16(d[lenAt:], bgp4.HeaderSize-1)
		}), func(t *testing.T, err error) { wantHeaderError(t, err, bgp4.HeaderBadLength) }},
		{"declared length past stream end", with(func(d []byte) {
			binary.BigEndian.PutUint16(d[lenAt:], uint16(len(valid)+100))
		}), wantCutShort},
		{"garbage marker", with(func(d []byte) { d[0] ^= 0xFF }),
			func(t *testing.T, err error) { wantHeaderError(t, err, bgp4.HeaderNotSynchronized) }},
		{"unknown message type", with(func(d []byte) { d[lenAt+2] = 0xEE }),
			func(t *testing.T, err error) { wantHeaderError(t, err, bgp4.HeaderBadType) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg, err := establishedReader(t, tc.stream).ReadMessage()
			if msg != nil {
				t.Fatalf("partial message returned alongside %v: %+v", err, msg)
			}
			tc.check(t, err)
		})
	}
}

// TestReaderGarbageAfterValidMessage: a good frame followed by mid-stream
// garbage must deliver the good frame first, then fail with the
// not-synchronized header error — the reader must not resynchronize
// silently.
func TestReaderGarbageAfterValidMessage(t *testing.T) {
	garbage := []byte("garbage-bytes-garbage-bytes-garbage")
	s := establishedReader(t, append(bgp4.AppendKeepalive(nil), garbage...))
	msg, err := s.ReadMessage()
	if err != nil {
		t.Fatalf("first message: %v", err)
	}
	if _, ok := msg.(wire.Keepalive); !ok {
		t.Fatalf("first message type %T", msg)
	}
	msg, err = s.ReadMessage()
	if msg != nil {
		t.Fatalf("second read returned %+v", msg)
	}
	wantHeaderError(t, err, bgp4.HeaderNotSynchronized)
}

// TestReaderDeclaredLengthExceedsStream checks the reader against a header
// whose declared length — the largest the format allows — runs past the
// end of the stream: the read must fail as cut short, with the buffer
// bounded by the maximum message size, never by attacker arithmetic.
func TestReaderDeclaredLengthExceedsStream(t *testing.T) {
	data := encodeUpdate(wire.Update{Withdrawn: []wire.WithdrawnRoute{{PathID: 9}}})
	binary.BigEndian.PutUint16(data[bgp4.MarkerSize:], bgp4.MaxMessageSize)
	_, err := establishedReader(t, data).ReadMessage()
	wantCutShort(t, err)
}

// TestReaderTruncatedStream: a stream that ends inside the last frame of
// an otherwise good run delivers the good frames, then fails as cut short.
func TestReaderTruncatedStream(t *testing.T) {
	first := encodeUpdate(wire.Update{Withdrawn: []wire.WithdrawnRoute{{PathID: 1}}})
	second := encodeUpdate(wire.Update{Withdrawn: []wire.WithdrawnRoute{{PathID: 2}}})
	s := establishedReader(t, append(first, second[:len(second)-3]...))
	if _, err := s.ReadMessage(); err != nil {
		t.Fatalf("first message: %v", err)
	}
	_, err := s.ReadMessage()
	wantCutShort(t, err)
}

// TestReaderWriterStream: a mixed stream of updates, liveness and a
// NOTIFICATION reads back as the same logical messages, then a clean EOF.
func TestReaderWriterStream(t *testing.T) {
	msgs := []wire.Message{
		wire.Update{Withdrawn: []wire.WithdrawnRoute{{PathID: 1}}},
		wire.Keepalive{},
		wire.Update{Announced: []wire.RouteRecord{{PathID: 4, LocalPref: 100, ExitPoint: 3, NextHopID: 3, TieBreak: -1}}},
		wire.Notification{Code: bgp4.NotifCease},
	}
	var stream []byte
	for _, m := range msgs {
		switch m := m.(type) {
		case wire.Update:
			stream = append(stream, encodeUpdate(m)...)
		case wire.Keepalive:
			stream = bgp4.AppendKeepalive(stream)
		case wire.Notification:
			stream = bgp4.AppendNotification(stream, bgp4.Notification{Code: m.Code, Subcode: m.Subcode})
		}
	}
	s := establishedReader(t, stream)
	for i, want := range msgs {
		got, err := s.ReadMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := s.ReadMessage(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// FuzzReader streams arbitrary bytes through the session reader: no
// panics, and no infinite loops on malformed framing.
func FuzzReader(f *testing.F) {
	good := encodeUpdate(wire.Update{Withdrawn: []wire.WithdrawnRoute{{PathID: 9}}})
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add(good[:3])
	f.Fuzz(func(t *testing.T, data []byte) {
		s := establishedReader(t, data)
		for i := 0; i < 100; i++ {
			if _, err := s.ReadMessage(); err != nil {
				return
			}
		}
	})
}
