package bgp4

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// pipe returns a connected loopback TCP pair (net.Pipe is synchronous and
// would deadlock the symmetric handshake, which writes before reading).
func pipe(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { a.Close(); acc.conn.Close() })
	return a, acc.conn
}

// establishPair runs the symmetric handshake between two sessions and
// fails the test if either side errors.
func establishPair(t *testing.T, ca, cb SessionConfig) (*Session, *Session, net.Conn, net.Conn) {
	t.Helper()
	connA, connB := pipe(t)
	sa, sb := NewSession(ca), NewSession(cb)
	errc := make(chan error, 1)
	go func() { errc <- sb.Establish(connB) }()
	if err := sa.Establish(connA); err != nil {
		t.Fatalf("A establish: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("B establish: %v", err)
	}
	return sa, sb, connA, connB
}

func sessionConfig(as, id, node uint32) SessionConfig {
	return SessionConfig{LocalAS: as, LocalID: id, NodeID: node, ClusterID: id, HoldTime: 90 * time.Second}
}

func TestSessionEstablish(t *testing.T) {
	sa, sb, _, _ := establishPair(t, sessionConfig(64512, 11, 1), sessionConfig(64512, 22, 2))
	if p := sa.Peer(); p.AS != 64512 || p.BGPID != 22 || !p.HasNodeID || p.NodeID != 2 {
		t.Fatalf("A's view of peer: %+v", p)
	}
	if p := sb.Peer(); p.BGPID != 11 || p.NodeID != 1 {
		t.Fatalf("B's view of peer: %+v", p)
	}
	if sa.HoldTime() != 90*time.Second || sb.HoldTime() != 90*time.Second {
		t.Fatalf("negotiated holds: %v / %v", sa.HoldTime(), sb.HoldTime())
	}
}

func TestSessionEstablishASMismatch(t *testing.T) {
	connA, connB := pipe(t)
	sa := NewSession(sessionConfig(64512, 11, 1))
	sb := NewSession(sessionConfig(64513, 22, 2))
	done := make(chan struct{})
	go func() { sb.Establish(connB); close(done) }()
	err := sa.Establish(connA)
	wantMessageErr(t, err, NotifOpen, OpenBadPeerAS)
	connA.Close()
	<-done
}

func TestSessionUpdateExchange(t *testing.T) {
	sa, sb, connA, _ := establishPair(t, sessionConfig(64512, 11, 1), sessionConfig(64512, 22, 2))
	u := wire.Update{
		Withdrawn: []wire.WithdrawnRoute{{Prefix: 1, PathID: 9}},
		Announced: []wire.RouteRecord{rec(0, 1), func() wire.RouteRecord {
			r := rec(2, 3)
			r.LocalPref = 200
			return r
		}()},
	}
	// Two attribute runs plus a withdrawal frame: the chain is at least two
	// frames long. Splice a KEEPALIVE between the first two frames — the
	// reader must swallow it without breaking reassembly.
	buf := sa.AppendUpdate(nil, &u)
	_, _, first, err := SplitFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if first == len(buf) {
		t.Fatal("update rode a single frame; test needs a chain")
	}
	mixed := append([]byte(nil), buf[:first]...)
	mixed = AppendKeepalive(mixed)
	mixed = append(mixed, buf[first:]...)
	if _, err := connA.Write(mixed); err != nil {
		t.Fatal(err)
	}
	msg, err := sb.ReadMessage()
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	got, ok := msg.(wire.Update)
	if !ok {
		t.Fatalf("message type %T", msg)
	}
	if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) || !reflect.DeepEqual(got.Announced, u.Announced) {
		t.Fatalf("reassembled update:\n got %+v\nwant %+v", got, u)
	}
}

func TestSessionKeepaliveAndNotification(t *testing.T) {
	sa, sb, connA, _ := establishPair(t, sessionConfig(64512, 11, 1), sessionConfig(64512, 22, 2))
	if _, err := connA.Write(AppendKeepalive(nil)); err != nil {
		t.Fatal(err)
	}
	if msg, err := sb.ReadMessage(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(wire.Keepalive); !ok {
		t.Fatalf("message type %T, want Keepalive", msg)
	}
	note := wire.Notification{Code: NotifCease, Subcode: 2}
	if _, err := connA.Write(sa.AppendNotification(nil, note)); err != nil {
		t.Fatal(err)
	}
	if msg, err := sb.ReadMessage(); err != nil {
		t.Fatal(err)
	} else if got, ok := msg.(wire.Notification); !ok || got != note {
		t.Fatalf("message = %#v, want %#v", msg, note)
	}
}

func TestSessionLoopDetection(t *testing.T) {
	t.Run("originator id", func(t *testing.T) {
		cb := sessionConfig(64512, 22, 2)
		var looped []uint32
		cb.OnLoop = func(prefix, pathID uint32) { looped = append(looped, prefix, pathID) }
		ca := sessionConfig(64512, 11, 1)
		// Every route A sends claims B as its originator: B must drop them
		// all (RFC 4456 §8) but keep the withdrawal.
		ca.OriginatorID = func(exit uint32) (uint32, bool) { return 22, true }
		sa, sb, connA, _ := establishPair(t, ca, cb)
		u := wire.Update{
			Withdrawn: []wire.WithdrawnRoute{{Prefix: 4, PathID: 8}},
			Announced: []wire.RouteRecord{rec(0, 1), rec(1, 2)},
		}
		if _, err := connA.Write(sa.AppendUpdate(nil, &u)); err != nil {
			t.Fatal(err)
		}
		msg, err := sb.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		got := msg.(wire.Update)
		if len(got.Announced) != 0 {
			t.Fatalf("looped routes survived: %+v", got.Announced)
		}
		if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) {
			t.Fatalf("withdrawal dropped with the loop: %+v", got.Withdrawn)
		}
		if want := []uint32{0, 1, 1, 2}; !reflect.DeepEqual(looped, want) {
			t.Fatalf("OnLoop saw %v, want %v", looped, want)
		}
	})
	t.Run("cluster list", func(t *testing.T) {
		cb := sessionConfig(64512, 22, 2)
		loops := 0
		cb.OnLoop = func(prefix, pathID uint32) { loops++ }
		ca := sessionConfig(64512, 11, 1)
		ca.ClusterID = cb.ClusterID // A's cluster ID is already in B's cluster
		ca.OriginatorID = func(exit uint32) (uint32, bool) { return 99, true }
		sa, sb, connA, _ := establishPair(t, ca, cb)
		u := wire.Update{Announced: []wire.RouteRecord{rec(0, 1)}}
		if _, err := connA.Write(sa.AppendUpdate(nil, &u)); err != nil {
			t.Fatal(err)
		}
		msg, err := sb.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if got := msg.(wire.Update); len(got.Announced) != 0 || loops != 1 {
			t.Fatalf("cluster-list loop not dropped: %+v, OnLoop %d", got, loops)
		}
	})
}

func TestSessionHoldDeadline(t *testing.T) {
	cfg := sessionConfig(64512, 11, 1)
	cfg.HoldTime = 200 * time.Millisecond
	peer := sessionConfig(64512, 22, 2)
	peer.HoldTime = 200 * time.Millisecond
	_, sb, _, _ := establishPair(t, cfg, peer)
	if sb.HoldTime() != 200*time.Millisecond {
		t.Fatalf("negotiated hold %v; sub-second local holds must survive negotiation", sb.HoldTime())
	}
	// A goes silent: B's read must fail with a timeout once the hold
	// expires, not block forever.
	start := time.Now()
	_, err := sb.ReadMessage()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a timeout net.Error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hold expiry took %v", elapsed)
	}
}

func TestNotificationFor(t *testing.T) {
	note, ok := NotificationFor(updateErr(UpdateInvalidOrigin, "x"))
	if !ok || note.Code != NotifUpdate || note.Subcode != UpdateInvalidOrigin {
		t.Fatalf("NotificationFor(MessageError) = %+v, %v", note, ok)
	}
	if _, ok := NotificationFor(errors.New("transport broke")); ok {
		t.Fatal("transport errors must not map onto a NOTIFICATION")
	}
}
