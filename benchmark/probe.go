package main

import (
	"fmt"
	"time"

	"repro/internal/bgp"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/wire/bgp4"
)

// updateLog keeps the wire bytes of every UPDATE a traced replay sent,
// with the sending router, so that the BGP-4 shadow probe can run after
// the replay and its allocations stay out of the replay's timing.
type updateLog struct {
	from []bgp.NodeID
	end  []int
	data []byte
	busy time.Duration // time spent appending, left out of the overhead
}

func (l *updateLog) add(u bgp.NodeID, msg []byte) {
	t0 := time.Now()
	l.data = append(l.data, msg...)
	l.end = append(l.end, len(l.data))
	l.from = append(l.from, u)
	l.busy += time.Since(t0)
}

// bgp4Probe is the shadow codec probe of the traced isp-warmup run: every
// UPDATE of the replay is framed again with the real BGP-4 encoder
// (bgp4.UpdateEncoder, set up the way the TCP speakers set it up), split
// back into frames, decoded and reassembled, and the records must match
// the logical update exactly.
type bgp4Probe struct {
	encs           []*bgp4.UpdateEncoder
	buf            []byte
	upd, got       wire.Update
	encode, decode time.Duration
	updates, bytes int
}

func newBGP4Probe(sys *topology.System) *bgp4Probe {
	originator := func(exitPoint uint32) (uint32, bool) {
		if int(exitPoint) >= sys.N() {
			return 0, false
		}
		return uint32(sys.BGPID(bgp.NodeID(exitPoint))), true
	}
	p := &bgp4Probe{}
	for u := 0; u < sys.N(); u++ {
		id := uint32(sys.BGPID(bgp.NodeID(u)))
		p.encs = append(p.encs, &bgp4.UpdateEncoder{LocalID: id, ClusterID: id, OriginatorID: originator})
	}
	return p
}

// run round-trips every logged UPDATE through the BGP-4 codec.
func (p *bgp4Probe) run(l *updateLog) error {
	start := 0
	for i, end := range l.end {
		v, _, err := wire.DecodeView(l.data[start:end])
		if err != nil {
			return fmt.Errorf("bgp4 probe: update %d: %w", i, err)
		}
		start = end
		v.AppendTo(&p.upd)
		if err := p.check(l.from[i], &p.upd); err != nil {
			return err
		}
	}
	return nil
}

// check round-trips one UPDATE sent by router u through the BGP-4 codec.
func (p *bgp4Probe) check(u bgp.NodeID, upd *wire.Update) error {
	t0 := time.Now()
	p.buf = p.encs[u].Append(p.buf[:0], upd)
	t1 := time.Now()
	p.encode += t1.Sub(t0)
	p.updates++
	p.bytes += len(p.buf)
	p.got.Withdrawn, p.got.Announced = p.got.Withdrawn[:0], p.got.Announced[:0]
	for rest := p.buf; len(rest) > 0; {
		typ, body, total, err := bgp4.SplitFrame(rest)
		if err != nil {
			return fmt.Errorf("bgp4 probe: split: %w", err)
		}
		if typ != bgp4.TypeUpdate {
			return fmt.Errorf("bgp4 probe: frame type %d, want UPDATE", typ)
		}
		f, err := bgp4.DecodeUpdate(body)
		if err != nil {
			return fmt.Errorf("bgp4 probe: decode: %w", err)
		}
		rest = rest[total:]
		if f.Continued != (len(rest) > 0) {
			return fmt.Errorf("bgp4 probe: continuation flag %v with %d octets left", f.Continued, len(rest))
		}
		p.got.Withdrawn = append(p.got.Withdrawn, f.Withdrawn...)
		p.got.Announced = append(p.got.Announced, f.Announced...)
	}
	p.decode += time.Since(t1)
	if !sameRecords(&p.got, upd) {
		return fmt.Errorf("bgp4 probe: round trip changed the update from router %d: got %+v, want %+v", u, p.got, *upd)
	}
	return nil
}

func sameRecords(a, b *wire.Update) bool {
	if len(a.Withdrawn) != len(b.Withdrawn) || len(a.Announced) != len(b.Announced) {
		return false
	}
	for i := range a.Withdrawn {
		if a.Withdrawn[i] != b.Withdrawn[i] {
			return false
		}
	}
	for i := range a.Announced {
		if a.Announced[i] != b.Announced[i] {
			return false
		}
	}
	return true
}
