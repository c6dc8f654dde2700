// Package bgp4 implements the real BGP-4 wire format of RFC 4271 — OPEN
// with capability negotiation (RFC 5492), UPDATE with variable-length path
// attributes, KEEPALIVE and NOTIFICATION with the standard error subcodes —
// extended with the route-reflection attributes ORIGINATOR_ID and
// CLUSTER_LIST of RFC 4456 and the per-route path identifiers of RFC 7911
// (ADD-PATH), which real-world deployments use exactly where the paper's
// Modified protocol needs them: to advertise the full MED-survivor set.
//
// It is the only format the TCP speakers (package speaker) put on their
// sessions: Session decodes the stream into the logical messages of
// package wire (wire.Update, wire.Keepalive, wire.Notification) that the
// shared router core consumes, and encodes the core's wire.Update values
// back onto the stream. A logical coalesced UPDATE whose records carry
// different attribute values cannot ride a single BGP-4 UPDATE (one
// message has one attribute set), so the encoder splits it into runs of
// attribute-equal records, one frame per run, chained by a continuation
// flag inside the EXIT_META development attribute; the session reader
// reassembles the chain into one logical wire.Update, which is what keeps
// the speakers' typed-event streams and quiescence ledger identical to the
// message-level simulator's.
//
// Layout fidelity is pinned by golden hexdump fixtures (testdata/*.hex)
// and a decode fuzzer; loop detection per RFC 4456 §8 (own BGP identifier
// in ORIGINATOR_ID, own cluster ID in CLUSTER_LIST) drops routes at the
// session reader and reports them through the session's OnLoop hook.
package bgp4

import (
	"encoding/binary"
	"fmt"
)

// Message types (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Framing constants (RFC 4271 §4.1): a 16-octet all-ones marker, a 2-octet
// total length and a 1-octet type; messages are 19..4096 octets.
const (
	MarkerSize     = 16
	HeaderSize     = MarkerSize + 2 + 1
	MaxMessageSize = 4096
	maxBodySize    = MaxMessageSize - HeaderSize
)

// Version is the BGP version carried in OPEN.
const Version = 4

// ASTrans is the 2-octet AS number standing in for a 4-octet AS in the
// OPEN's My Autonomous System field (RFC 6793).
const ASTrans = 23456

// NOTIFICATION error codes (RFC 4271 §4.5).
const (
	NotifMessageHeader = 1
	NotifOpen          = 2
	NotifUpdate        = 3
	NotifHoldExpired   = 4
	NotifFSM           = 5
	NotifCease         = 6
)

// Message Header Error subcodes (RFC 4271 §6.1).
const (
	HeaderNotSynchronized = 1
	HeaderBadLength       = 2
	HeaderBadType         = 3
)

// OPEN Message Error subcodes (RFC 4271 §6.2, RFC 5492).
const (
	OpenBadVersion       = 1
	OpenBadPeerAS        = 2
	OpenBadBGPID         = 3
	OpenUnsupportedParam = 4
	OpenBadHoldTime      = 6
	OpenUnsupportedCap   = 7
)

// UPDATE Message Error subcodes (RFC 4271 §6.3).
const (
	UpdateMalformedAttrs  = 1
	UpdateUnrecognizedWK  = 2
	UpdateMissingWK       = 3
	UpdateAttrFlagsError  = 4
	UpdateAttrLengthError = 5
	UpdateInvalidOrigin   = 6
	UpdateInvalidNextHop  = 8
	UpdateOptAttrError    = 9
	UpdateInvalidNetwork  = 10
	UpdateMalformedASPath = 11
)

// Path attribute type codes.
const (
	AttrOrigin       = 1
	AttrASPath       = 2
	AttrNextHop      = 3
	AttrMED          = 4
	AttrLocalPref    = 5
	AttrOriginatorID = 9  // RFC 4456
	AttrClusterList  = 10 // RFC 4456
	// AttrExitMeta is a development attribute (RFC 2042 reserves type 255
	// for development): optional non-transitive, carrying the model
	// attributes BGP-4 has no field for (exit point, IGP exit cost,
	// tie-break) plus the continuation flag that chains the frames of one
	// logical coalesced UPDATE. Foreign speakers drop it silently, which
	// only costs them the ledger's logical-update grouping, never routes.
	AttrExitMeta = 255
)

// Path attribute flag bits (RFC 4271 §4.3).
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtended   = 0x10
)

// Capability codes (RFC 5492 registry).
const (
	CapFourOctetAS = 65 // RFC 6793
	CapAddPath     = 69 // RFC 7911
	// CapNodeID is a vendor/experimental capability (first-come range)
	// carrying the speaker's 4-octet node index within the shared
	// topology, so an accepting speaker can identify who dialed without
	// out-of-band state. Peers that do not send it can still establish;
	// the harness requires it to wire sessions to router cores.
	CapNodeID = 128
)

const capOptParam = 2 // optional parameter type: Capabilities (RFC 5492)

// exitMetaLen is the EXIT_META value length: flags(1) + NextAS(4) +
// ExitPoint(4) + ExitCost(8) + TieBreak(4).
const exitMetaLen = 21

const metaContinued = 0x01 // EXIT_META flag: more frames of this logical update follow

// MessageError is a decode or negotiation failure that maps onto a BGP-4
// NOTIFICATION: Code/Subcode/Data are exactly what the notifying speaker
// should put on the wire (RFC 4271 §6), Reason is the human-readable cause.
type MessageError struct {
	Code    uint8
	Subcode uint8
	Data    []byte
	Reason  string
}

func (e *MessageError) Error() string {
	return fmt.Sprintf("bgp4: %s (NOTIFICATION %d/%d)", e.Reason, e.Code, e.Subcode)
}

func headerErr(subcode uint8, data []byte, format string, args ...any) error {
	return &MessageError{Code: NotifMessageHeader, Subcode: subcode, Data: data, Reason: fmt.Sprintf(format, args...)}
}

func openErr(subcode uint8, data []byte, format string, args ...any) error {
	return &MessageError{Code: NotifOpen, Subcode: subcode, Data: data, Reason: fmt.Sprintf(format, args...)}
}

func updateErr(subcode uint8, format string, args ...any) error {
	return &MessageError{Code: NotifUpdate, Subcode: subcode, Reason: fmt.Sprintf(format, args...)}
}

func fsmErr(format string, args ...any) error {
	return &MessageError{Code: NotifFSM, Reason: fmt.Sprintf(format, args...)}
}

// appendHeader writes the 19-octet fixed header for a body of bodyLen.
func appendHeader(buf []byte, typ byte, bodyLen int) []byte {
	for i := 0; i < MarkerSize; i++ {
		buf = append(buf, 0xFF)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(HeaderSize+bodyLen))
	return append(buf, typ)
}

// minBodyLen is the smallest legal body per message type (RFC 4271 §6.1).
func minBodyLen(typ byte) int {
	switch typ {
	case TypeOpen:
		return 10
	case TypeUpdate:
		return 4
	case TypeNotification:
		return 2
	default:
		return 0
	}
}

// ParseHeader validates a 19-octet fixed header and returns the message
// type and total framed length (header included).
func ParseHeader(hdr []byte) (typ byte, total int, err error) {
	if len(hdr) < HeaderSize {
		return 0, 0, ErrShortFrame
	}
	for i := 0; i < MarkerSize; i++ {
		if hdr[i] != 0xFF {
			return 0, 0, headerErr(HeaderNotSynchronized, nil, "connection not synchronized: marker byte %d is %#02x", i, hdr[i])
		}
	}
	total = int(binary.BigEndian.Uint16(hdr[MarkerSize : MarkerSize+2]))
	typ = hdr[MarkerSize+2]
	if total < HeaderSize || total > MaxMessageSize {
		return 0, 0, headerErr(HeaderBadLength, hdr[MarkerSize:MarkerSize+2], "bad message length %d", total)
	}
	if typ < TypeOpen || typ > TypeKeepalive {
		return 0, 0, headerErr(HeaderBadType, []byte{typ}, "bad message type %d", typ)
	}
	if total-HeaderSize < minBodyLen(typ) {
		return 0, 0, headerErr(HeaderBadLength, hdr[MarkerSize:MarkerSize+2], "message type %d too short (%d octets)", typ, total)
	}
	if typ == TypeKeepalive && total != HeaderSize {
		return 0, 0, headerErr(HeaderBadLength, hdr[MarkerSize:MarkerSize+2], "KEEPALIVE with a body (%d octets)", total)
	}
	return typ, total, nil
}

// SplitFrame validates the fixed header of the message starting at data
// and returns its type, body and total framed length. data must hold the
// whole frame; a shorter slice returns ErrShortFrame so stream readers can
// distinguish "need more bytes" from corruption.
func SplitFrame(data []byte) (typ byte, body []byte, total int, err error) {
	typ, total, err = ParseHeader(data)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(data) < total {
		return 0, nil, 0, ErrShortFrame
	}
	return typ, data[HeaderSize:total], total, nil
}

// ErrShortFrame reports that a buffer ends before the frame it starts.
var ErrShortFrame = fmt.Errorf("bgp4: short frame")

// Notification is a decoded NOTIFICATION message.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// AppendNotification frames one NOTIFICATION onto buf.
func AppendNotification(buf []byte, n Notification) []byte {
	buf = appendHeader(buf, TypeNotification, 2+len(n.Data))
	buf = append(buf, n.Code, n.Subcode)
	return append(buf, n.Data...)
}

// DecodeNotification parses a NOTIFICATION body.
func DecodeNotification(body []byte) (Notification, error) {
	if len(body) < 2 {
		return Notification{}, headerErr(HeaderBadLength, nil, "NOTIFICATION body %d octets", len(body))
	}
	n := Notification{Code: body[0], Subcode: body[1]}
	if len(body) > 2 {
		n.Data = append([]byte(nil), body[2:]...)
	}
	return n, nil
}

// AppendKeepalive frames one KEEPALIVE onto buf (header only).
func AppendKeepalive(buf []byte) []byte { return appendHeader(buf, TypeKeepalive, 0) }
