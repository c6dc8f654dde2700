package bgp4

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// handshakeTimeout bounds the whole OPEN/KEEPALIVE exchange; after
// establishment the negotiated hold time takes over.
const handshakeTimeout = 30 * time.Second

// minHoldSeconds is the smallest hold time this speaker puts on the wire.
// RFC 4271 §6.2 forbids 1 and 2; a configured sub-second hold (tests use
// these to exercise expiry quickly) is advertised as this minimum and the
// sub-second value applied locally — both peers of a harness session share
// the configuration, so the effective min() stays symmetric.
const minHoldSeconds = 3

// SessionConfig carries everything one BGP-4 session needs from the
// speaker: identity, hold policy and the reflection-loop callbacks.
type SessionConfig struct {
	LocalAS   uint32
	LocalID   uint32 // own BGP identifier
	NodeID    uint32 // own node index (experimental capability)
	ClusterID uint32 // RFC 4456 cluster ID; conventionally the BGP identifier

	// HoldTime is the locally proposed hold time; zero disables the hold
	// timer and keepalive generation entirely.
	HoldTime time.Duration

	// OriginatorID resolves an exit point to the injecting router's BGP
	// identifier for ORIGINATOR_ID stamping (nil: never stamp).
	OriginatorID func(exitPoint uint32) (uint32, bool)

	// OnLoop is called once per announced route dropped by RFC 4456 §8
	// loop detection (own ID in ORIGINATOR_ID, or own cluster ID in
	// CLUSTER_LIST). May be nil.
	OnLoop func(prefix, pathID uint32)
}

// Session is one established BGP-4 session: the OPEN/KEEPALIVE handshake,
// the hold timer on the read side, and reassembly of continuation-chained
// UPDATE frames back into logical wire.Update messages.
type Session struct {
	cfg  SessionConfig
	conn net.Conn
	br   *bufio.Reader
	enc  UpdateEncoder

	peer Open
	hold time.Duration // negotiated effective hold time (0: disabled)

	hdr     [HeaderSize]byte
	body    []byte
	pending *wire.Update // partially reassembled logical update
}

// NewSession returns an unestablished session for cfg.
func NewSession(cfg SessionConfig) *Session {
	return &Session{
		cfg: cfg,
		enc: UpdateEncoder{LocalID: cfg.LocalID, ClusterID: cfg.ClusterID, OriginatorID: cfg.OriginatorID},
	}
}

// holdSeconds is the hold time advertised in our OPEN.
func (s *Session) holdSeconds() uint16 {
	if s.cfg.HoldTime <= 0 {
		return 0
	}
	secs := int64(s.cfg.HoldTime / time.Second)
	if secs < minHoldSeconds {
		return minHoldSeconds
	}
	if secs > 0xFFFF {
		return 0xFFFF
	}
	return uint16(secs)
}

// Establish runs the symmetric handshake on conn: send OPEN, expect the
// peer's OPEN, send KEEPALIVE, expect the peer's KEEPALIVE. Both ends run
// the identical sequence, so there is no dialer/acceptor asymmetry. On
// return the session is Established and ReadMessage/Append* may be used.
func (s *Session) Establish(conn net.Conn) error {
	s.conn = conn
	s.br = bufio.NewReader(conn)
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	open := AppendOpen(nil, Open{
		AS:       s.cfg.LocalAS,
		HoldTime: s.holdSeconds(),
		BGPID:    s.cfg.LocalID,
		NodeID:   s.cfg.NodeID,
	})
	if _, err := conn.Write(open); err != nil {
		return fmt.Errorf("bgp4: send OPEN: %w", err)
	}
	typ, body, err := s.readFrame()
	if err != nil {
		return fmt.Errorf("bgp4: await OPEN: %w", err)
	}
	switch typ {
	case TypeOpen:
	case TypeNotification:
		n, _ := DecodeNotification(body)
		return fmt.Errorf("bgp4: peer refused session: NOTIFICATION %d/%d", n.Code, n.Subcode)
	default:
		return fsmErr("message type %d before OPEN", typ)
	}
	peer, err := DecodeOpen(body)
	if err != nil {
		return err
	}
	if peer.AS != s.cfg.LocalAS {
		return openErr(OpenBadPeerAS, nil, "peer AS %d, expected I-BGP peer in AS %d", peer.AS, s.cfg.LocalAS)
	}
	if !peer.FourOctetAS || !peer.AddPath {
		return openErr(OpenUnsupportedCap, nil, "peer lacks required capabilities (4-octet AS %v, ADD-PATH %v)", peer.FourOctetAS, peer.AddPath)
	}
	s.peer = peer
	s.hold = negotiateHold(s.cfg.HoldTime, peer.HoldTime)
	if _, err := conn.Write(AppendKeepalive(nil)); err != nil {
		return fmt.Errorf("bgp4: send KEEPALIVE: %w", err)
	}
	typ, body, err = s.readFrame()
	if err != nil {
		return fmt.Errorf("bgp4: await KEEPALIVE: %w", err)
	}
	switch typ {
	case TypeKeepalive:
	case TypeNotification:
		n, _ := DecodeNotification(body)
		return fmt.Errorf("bgp4: peer refused session: NOTIFICATION %d/%d", n.Code, n.Subcode)
	default:
		return fsmErr("message type %d in OpenConfirm", typ)
	}
	return conn.SetDeadline(time.Time{})
}

// negotiateHold combines the locally configured hold duration with the
// peer's advertised seconds: the smaller of the two, where zero on either
// side means "no constraint from that side" (both zero disables the timer).
// Keeping the local sub-second duration exact lets tests negotiate holds
// the 1-second wire granularity cannot carry.
func negotiateHold(local time.Duration, peerSecs uint16) time.Duration {
	peer := time.Duration(peerSecs) * time.Second
	switch {
	case local <= 0:
		return peer
	case peerSecs == 0:
		return local
	case peer < local:
		return peer
	default:
		return local
	}
}

// Peer returns the peer's decoded OPEN (valid after Establish).
func (s *Session) Peer() Open { return s.peer }

// HoldTime returns the negotiated effective hold time (0: disabled).
func (s *Session) HoldTime() time.Duration { return s.hold }

func (s *Session) readFrame() (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(s.br, s.hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, total, err := ParseHeader(s.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if n := total - HeaderSize; cap(s.body) < n {
		s.body = make([]byte, n)
	} else {
		s.body = s.body[:n]
	}
	if _, err := io.ReadFull(s.br, s.body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, s.body, nil
}

// ReadMessage reads frames until one logical message is complete and
// returns it as the shared wire.Message type. Continuation-chained UPDATE
// frames are reassembled into a single wire.Update (keepalives arriving
// mid-chain are swallowed); RFC 4456 loop detection drops looped routes
// frame by frame. When a hold time is negotiated, each frame read runs
// under a deadline of that length — expiry surfaces as a net.Error with
// Timeout() true.
func (s *Session) ReadMessage() (wire.Message, error) {
	for {
		if s.hold > 0 {
			if err := s.conn.SetReadDeadline(time.Now().Add(s.hold)); err != nil {
				return nil, err
			}
		}
		typ, body, err := s.readFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case TypeKeepalive:
			if s.pending != nil {
				continue // liveness between frames of one logical update
			}
			return wire.Keepalive{}, nil
		case TypeNotification:
			n, err := DecodeNotification(body)
			if err != nil {
				return nil, err
			}
			return wire.Notification{Code: n.Code, Subcode: n.Subcode}, nil
		case TypeOpen:
			return nil, fsmErr("OPEN on an established session")
		}
		f, err := DecodeUpdate(body)
		if err != nil {
			return nil, err
		}
		s.filterLoops(&f)
		if s.pending == nil {
			s.pending = &wire.Update{}
		}
		s.pending.Withdrawn = append(s.pending.Withdrawn, f.Withdrawn...)
		s.pending.Announced = append(s.pending.Announced, f.Announced...)
		if f.Continued {
			continue
		}
		u := s.pending
		s.pending = nil
		return *u, nil
	}
}

// filterLoops applies RFC 4456 §8: a route whose ORIGINATOR_ID is our own
// BGP identifier, or whose CLUSTER_LIST contains our cluster ID, has
// looped and is dropped before it reaches the router core. Withdrawals
// are kept — retracting state is always safe.
func (s *Session) filterLoops(f *UpdateFrame) {
	looped := f.HasOriginator && f.OriginatorID == s.cfg.LocalID
	if !looped {
		for _, c := range f.ClusterList {
			if c == s.cfg.ClusterID {
				looped = true
				break
			}
		}
	}
	if !looped {
		return
	}
	for _, r := range f.Announced {
		if s.cfg.OnLoop != nil {
			s.cfg.OnLoop(r.Prefix, r.PathID)
		}
	}
	f.Announced = f.Announced[:0]
}

// AppendUpdate frames the logical update u onto buf (one or more UPDATE
// messages, continuation-chained).
func (s *Session) AppendUpdate(buf []byte, u *wire.Update) []byte {
	return s.enc.Append(buf, u)
}

// AppendNotification frames one NOTIFICATION onto buf.
func (s *Session) AppendNotification(buf []byte, n wire.Notification) []byte {
	return AppendNotification(buf, Notification{Code: n.Code, Subcode: n.Subcode})
}

// NotificationFor maps a receive-side error onto the NOTIFICATION the
// speaker should send before teardown, when the error calls for one
// (decode and negotiation failures do; transport errors do not).
func NotificationFor(err error) (wire.Notification, bool) {
	var me *MessageError
	if errors.As(err, &me) {
		return wire.Notification{Code: me.Code, Subcode: me.Subcode}, true
	}
	return wire.Notification{}, false
}
