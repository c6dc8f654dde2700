package main

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/bgp"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/wire"
)

// replay re-drives the msgsim.Run loop from outside the simulator, through
// the public API of the router core (NewDomain, NewRouter, Inject,
// WithdrawExternal, ApplyUpdateView, Reopen, Refresh) and the private codec
// (wire.AppendUpdate, wire.DecodeView), so that each layer's busy time can
// be measured around the calls into it without a timer in program code.
//
// It mirrors msgsim for fault-free runs: the same (time, seq) event heap,
// the same same-instant drain per target router, the same per-session FIFO
// clamp, the same order of delay draws, and the same event and buffer
// freelists. The traced run checks that it reproduces msgsim exactly, so
// its per-layer split describes the run the untraced numbers time.
type replay struct {
	dom      *router.Domain
	routers  []*router.Router
	counters router.Counters
	delay    msgsim.DelayFunc
	sends    []router.SendFunc

	queue  replayHeap
	seq    int
	now    int64
	events int

	free []*replayEvent
	bufs [][]byte

	sentSeq map[[2]bgp.NodeID]int
	lastArr map[[2]bgp.NodeID]int64

	tr     layerTimes
	inSend time.Duration // total time inside send callbacks
	err    error         // first failure, which stops Run
	log    *updateLog    // nil unless the UPDATE stream is kept
}

// layerTimes accumulates busy time and work counts per layer. Refresh is
// busy time inside Router.Refresh minus the time spent in the transport's
// send callback, which the encode span and the driver account for.
type layerTimes struct {
	refresh, apply, encode, decode time.Duration
	refreshCalls, usefulRefresh    int
	updates, updateBytes           int
	depthSum                       int
	depthMax                       int
}

func (t *layerTimes) add(u layerTimes) {
	t.refresh += u.refresh
	t.apply += u.apply
	t.encode += u.encode
	t.decode += u.decode
	t.refreshCalls += u.refreshCalls
	t.usefulRefresh += u.usefulRefresh
	t.updates += u.updates
	t.updateBytes += u.updateBytes
	t.depthSum += u.depthSum
	t.depthMax = max(t.depthMax, u.depthMax)
}

type replayEvent struct {
	time     int64
	seq      int
	kind     replayKind
	from, to bgp.NodeID
	payload  []byte
	prefix   uint32
	path     bgp.PathID
}

type replayKind int

const (
	rpMessage replayKind = iota
	rpInject
	rpWithdraw
	rpFlush
)

type replayHeap []*replayEvent

func (h replayHeap) Len() int { return len(h) }
func (h replayHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h replayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *replayHeap) Push(x any)   { *h = append(*h, x.(*replayEvent)) }
func (h *replayHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// newReplay builds the replay over the same inputs msgsim.NewMulti takes.
func newReplay(systems map[uint32]*topology.System, policy protocol.Policy, delay msgsim.DelayFunc) (*replay, error) {
	dom, err := router.NewDomain(systems, policy, selection.Options{})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	r := &replay{
		dom:     dom,
		delay:   delay,
		sentSeq: map[[2]bgp.NodeID]int{},
		lastArr: map[[2]bgp.NodeID]int64{},
	}
	for u := 0; u < dom.Base().N(); u++ {
		r.routers = append(r.routers, dom.NewRouter(bgp.NodeID(u), &r.counters))
		r.sends = append(r.sends, r.sendFrom(bgp.NodeID(u)))
	}
	return r, nil
}

func (r *replay) setMRAI(d int64) {
	for _, rt := range r.routers {
		rt.SetMRAI(d)
	}
}

// InjectAll, InjectPrefixAt, WithdrawPrefixAt, Run, Now and BestFor
// follow the msgsim.Sim methods of the same names, so that one driver
// loop can run either (see sim).

func (r *replay) InjectAll() {
	for _, prefix := range r.dom.Prefixes() {
		for _, p := range r.dom.System(prefix).Exits() {
			r.pushEv(replayEvent{kind: rpInject, prefix: prefix, path: p.ID})
		}
	}
}

func (r *replay) InjectPrefixAt(at int64, prefix uint32, id bgp.PathID) {
	r.pushEv(replayEvent{time: at, kind: rpInject, prefix: prefix, path: id})
}

func (r *replay) WithdrawPrefixAt(at int64, prefix uint32, id bgp.PathID) {
	r.pushEv(replayEvent{time: at, kind: rpWithdraw, prefix: prefix, path: id})
}

func (r *replay) pushEv(e replayEvent) {
	var ev *replayEvent
	if n := len(r.free); n > 0 {
		ev = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		ev = &replayEvent{}
	}
	*ev = e
	ev.seq = r.seq
	r.seq++
	heap.Push(&r.queue, ev)
}

func (r *replay) recycle(e *replayEvent) {
	if cap(e.payload) > 0 {
		r.bufs = append(r.bufs, e.payload)
	}
	*e = replayEvent{}
	r.free = append(r.free, e)
}

func (r *replay) getBuf() []byte {
	if n := len(r.bufs); n > 0 {
		b := r.bufs[n-1]
		r.bufs = r.bufs[:n-1]
		return b[:0]
	}
	return make([]byte, 0, 256)
}

// sendFrom is the transport callback for router u: encode (timed), draw
// the delay, clamp to per-session FIFO order and queue the delivery. The
// whole callback is timed too, so that Refresh's own busy time can
// exclude it. A failure is kept for run to return: the core would count
// the message as dropped and carry on.
func (r *replay) sendFrom(u bgp.NodeID) router.SendFunc {
	return func(w bgp.NodeID, upd *wire.Update) (int64, error) {
		t0 := time.Now()
		defer func() { r.inSend += time.Since(t0) }()
		data, err := wire.AppendUpdate(r.getBuf(), upd)
		r.tr.encode += time.Since(t0)
		if err != nil {
			r.fail(fmt.Errorf("replay: send %d -> %d: %w", u, w, err))
			return -1, err
		}
		r.tr.updates++
		r.tr.updateBytes += len(data)
		if r.log != nil {
			r.log.add(u, data)
		}
		key := [2]bgp.NodeID{u, w}
		n := r.sentSeq[key]
		r.sentSeq[key] = n + 1
		d := r.delay(u, w, n)
		if d < 0 {
			d = 0
		}
		at := r.now + d
		if last := r.lastArr[key]; at < last {
			at = last
		}
		r.lastArr[key] = at
		r.pushEv(replayEvent{time: at, kind: rpMessage, from: u, to: w, payload: data})
		return at, nil
	}
}

func (r *replay) target(ev *replayEvent) bgp.NodeID {
	switch ev.kind {
	case rpMessage:
		return ev.to
	case rpFlush:
		return ev.from
	default:
		return r.dom.System(ev.prefix).Exit(ev.path).ExitPoint
	}
}

func (r *replay) apply(ev *replayEvent) {
	switch ev.kind {
	case rpInject:
		at := r.dom.System(ev.prefix).Exit(ev.path).ExitPoint
		t0 := time.Now()
		r.routers[at].Inject(r.now, ev.prefix, ev.path)
		r.tr.apply += time.Since(t0)
	case rpWithdraw:
		at := r.dom.System(ev.prefix).Exit(ev.path).ExitPoint
		t0 := time.Now()
		r.routers[at].WithdrawExternal(r.now, ev.prefix, ev.path)
		r.tr.apply += time.Since(t0)
	case rpMessage:
		t0 := time.Now()
		v, _, err := wire.DecodeView(ev.payload)
		t1 := time.Now()
		r.tr.decode += t1.Sub(t0)
		if err != nil {
			r.fail(fmt.Errorf("replay: decode %d -> %d: %w", ev.from, ev.to, err))
			return
		}
		err = r.routers[ev.to].ApplyUpdateView(r.now, ev.from, v)
		r.tr.apply += time.Since(t1)
		if err != nil {
			r.fail(fmt.Errorf("replay: apply at %d: %w", ev.to, err))
		}
	case rpFlush:
		t0 := time.Now()
		r.routers[ev.from].Reopen(ev.to)
		r.tr.apply += time.Since(t0)
	}
}

func (r *replay) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *replay) pop() *replayEvent {
	r.tr.depthSum += len(r.queue)
	if len(r.queue) > r.tr.depthMax {
		r.tr.depthMax = len(r.queue)
	}
	r.events++
	return heap.Pop(&r.queue).(*replayEvent)
}

// Run processes events until the queue drains or maxEvents (cumulative, as
// in msgsim.Run) is reached. A failure inside the core or the codec stops
// the run; Err reports it.
func (r *replay) Run(maxEvents int) msgsim.Result {
	for r.err == nil && len(r.queue) > 0 && r.events < maxEvents {
		ev := r.pop()
		r.now = ev.time
		who := r.target(ev)
		r.apply(ev)
		r.recycle(ev)
		for r.err == nil && len(r.queue) > 0 && r.queue[0].time == r.now && r.target(r.queue[0]) == who {
			next := r.pop()
			r.apply(next)
			r.recycle(next)
		}
		if r.err == nil {
			r.refresh(who)
		}
	}
	res := msgsim.Result{
		Quiesced: len(r.queue) == 0 && r.err == nil,
		Events:   r.events,
		Messages: int(r.counters.Sent.Load()),
		Flaps:    int(r.counters.Flaps.Load()),
		Time:     r.now,
		Best:     make([]bgp.PathID, len(r.routers)),
	}
	first := r.dom.Prefixes()[0]
	for u, rt := range r.routers {
		res.Best[u] = rt.Best(first)
	}
	return res
}

// Err returns the first failure that stopped Run, if any.
func (r *replay) Err() error { return r.err }

func (r *replay) Now() int64 { return r.now }

func (r *replay) BestFor(prefix uint32, u bgp.NodeID) bgp.PathID { return r.routers[u].Best(prefix) }

// refresh runs Router.Refresh for one router; its busy time excludes the
// send callbacks, and a call counts as useful when it sent an UPDATE.
func (r *replay) refresh(u bgp.NodeID) {
	sent, inSend := r.tr.updates, r.inSend
	t0 := time.Now()
	defs := r.routers[u].Refresh(r.now, r.sends[u])
	r.tr.refresh += time.Since(t0) - (r.inSend - inSend)
	r.tr.refreshCalls++
	if r.tr.updates > sent {
		r.tr.usefulRefresh++
	}
	for _, d := range defs {
		r.pushEv(replayEvent{time: d.ReadyAt, kind: rpFlush, from: u, to: d.To})
	}
}

// split is the share of the replay's wall spent in each layer, the rest
// being the event queue and the driver loop.
func (r *replay) split(wall time.Duration) map[string]float64 {
	t := r.tr
	w := float64(wall)
	return map[string]float64{
		"refresh":      float64(t.refresh) / w,
		"apply":        float64(t.apply) / w,
		"encode":       float64(t.encode) / w,
		"decode":       float64(t.decode) / w,
		"queue_driver": float64(wall-t.refresh-t.apply-t.encode-t.decode) / w,
	}
}
