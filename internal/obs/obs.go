// Package obs is the simulator's observability layer: a metrics registry
// of monotonic counters and gauges keyed by (router, port, VC, kind), and
// a cycle-accurate event tracer with JSON Lines and Chrome trace_event
// sinks.
//
// # Why it exists
//
// The paper's evaluation reasons about where inside the router faults
// bite — per pipeline stage, per port, per VC — but endpoint packet
// statistics (internal/stats) cannot show pipeline occupancy, arbiter
// borrows, bypass activations or secondary-crossbar detours. This package
// makes that activity visible without perturbing the thing it measures.
//
// # Design
//
// Observability is opt-in per simulation via router.Config.Obs. When the
// field is nil — the default — the handles are nil, and every call on one
// is an inlined nil test and no allocation, so the disabled
// simulator profile is indistinguishable from an uninstrumented build
// (bench_test.go keeps the comparison honest). When enabled, a router
// and its NI bind one header per node at attach time, RouterObs and
// NodeObs being two views of it: it addresses the node's contiguous
// counter block in the registry, its flight ring and its window cells.
// Per-event work is then an indexed atomic add or two plus, when
// recording, one 24-byte ring store — nothing is looked up, and nothing
// outside the header and the lines written is touched.
//
// # Data flow
//
//	core.Router ──RouterObs──▶ Metrics (counters/gauges)
//	noc.Network/NI ──NodeObs──▶   │        Tracer / FlightRecorder
//	fault.Injector ──Observer──▶  │      (one event ring per router)
//	watchdog.Monitor ─Observer─▶  │                 │ merge
//	                              ▼                 ▼
//	              observe metrics table   trace.json (Chrome) / JSONL,
//	                                      hop spans, flight dumps
//
// The Tracer and the FlightRecorder are one event store, a fixed ring per
// router: long campaigns stay bounded in memory and keep each router's
// most recent events (⌈capacity/nodes⌉ of them, not the global last
// capacity). Both read out through one merge, stably by (cycle, router),
// which keeps each router's emission order at any worker count.
package obs

import (
	"fmt"

	"gonoc/internal/sim"
)

// Observer bundles the collection surfaces. Any field may be nil to
// collect only the others.
type Observer struct {
	// Metrics is the counter/gauge registry, or nil.
	Metrics *Metrics
	// Tracer captures cycle-stamped events, or nil.
	Tracer *Tracer
	// Windows accumulates windowed per-link utilization and stall-mix
	// series (the /heatmap and noctool observe heatmap source), or nil.
	Windows *Windows
	// Flight is the always-on bounded flight recorder, dumped when a
	// watchdog or nocassert anomaly trips, or nil.
	Flight *FlightRecorder

	// lanes is the header slab of the network attached last, one per
	// node in node order; a header is filled when its node binds.
	lanes []lane
}

// New returns an Observer with a fresh metrics registry and, when
// traceCapacity > 0, a tracer retaining that many events.
func New(traceCapacity int) *Observer {
	o := &Observer{Metrics: NewMetrics()}
	if traceCapacity > 0 {
		o.Tracer = NewTracer(traceCapacity)
	}
	return o
}

// Attach readies the observer for a network of nodes routers with the
// given port and VC counts before any handle binds (noc.New calls it):
// it refuses surfaces sized for another geometry — the window ring and
// the event stores index their storage by node, port and VC unchecked,
// and a registry may hold a router's block in one shape only — then
// sizes the tracer's per-router rings and makes the network's header
// slab. A second network attached to the same observer gets a slab of
// its own; its counters still sum into the registry's blocks.
func (o *Observer) Attach(nodes, ports, vcs int) error {
	if w := o.Windows; w != nil && (w.nodes != nodes || w.ports != ports || w.vcs != vcs) {
		return fmt.Errorf("obs: Windows sized for %d nodes, %d ports, %d VCs attached to a network of %d nodes, %d ports, %d VCs",
			w.nodes, w.ports, w.vcs, nodes, ports, vcs)
	}
	if f := o.Flight; f != nil && len(f.lanes) != nodes {
		return fmt.Errorf("obs: FlightRecorder sized for %d nodes attached to a network of %d nodes", len(f.lanes), nodes)
	}
	if t := o.Tracer; t != nil && t.lanes != nil && len(t.lanes) != nodes {
		return fmt.Errorf("obs: Tracer sized for %d nodes attached to a network of %d nodes", len(t.lanes), nodes)
	}
	if m := o.Metrics; m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		for id, b := range m.blocks {
			if b != nil && id < nodes && (b.ports != ports || b.vcs != vcs) {
				return fmt.Errorf("obs: registry holds router %d with %d ports, %d VCs; the network binding to it has %d ports, %d VCs",
					id, b.ports, b.vcs, ports, vcs)
			}
		}
	}
	if t := o.Tracer; t != nil && t.lanes == nil {
		t.size(nodes, (t.globalCap+nodes-1)/nodes)
	}
	o.lanes = make([]lane, nodes)
	return nil
}

// RecordFault counts and traces one fault-layer occurrence (injection,
// transient strike, recovery, detection). kind selects the counter
// series; ev the event class. port/vcIdx locate the site (NoPort/NoVC
// when not applicable), arg carries the event's Kind-specific argument
// and detail an optional site name. Fault events are rare, so this
// resolves the counter per call instead of pre-binding.
func (o *Observer) RecordFault(kind Kind, ev EventKind, cy sim.Cycle, routerID, port, vcIdx int, arg int32, detail string) {
	if o == nil {
		return
	}
	if m := o.Metrics; m != nil {
		m.Counter(Key{Kind: kind, Router: int32(routerID), Port: int8(port), VC: int8(vcIdx)}).Inc()
	}
	e := Event{
		Cycle: cy, Kind: ev, Router: int32(routerID),
		Port: int8(port), VC: int8(vcIdx), Arg: arg, Detail: detail,
	}
	if o.Tracer != nil {
		o.Tracer.Emit(e)
	}
	if o.Flight != nil {
		o.Flight.Record(e)
	}
}

// lane is one node's observability header: what an event of the node
// needs to address its counter, its flight slot and its window cell,
// resolved once at bind time so an instrumentation site touches the
// header and the lines it writes and nothing else. A network's headers
// are one dense slab in node order (Observer.lanes; 64 bytes each, so a
// header is one cache line), and the node's RouterObs and NodeObs are two
// views of the same header.
type lane struct {
	c     []Counter  // the node's counter block, in the block layout
	fl    *eventLane // the node's flight-recorder ring, or nil
	tr    *Tracer    // whose pause switch gates the node's tracer lane
	win   *Windows   // the window ring the node's cells are in, or nil
	queue *Gauge     // the NI's queue-depth gauge
	node  int32
	ports int16
	vcs   int16
}

// bindLane returns node id's header, marking the router or node side of
// its counter block bound. The header of a network's node is in the slab
// Attach made; a node past it, or an Observer never attached (a router
// built alone), gets a header of its own. Without a registry the node
// counts into a private block nobody reads, which keeps the per-event
// path free of nil tests.
func (o *Observer) bindLane(id, ports, vcs int, node bool) *lane {
	var b *block
	if o.Metrics != nil {
		b = o.Metrics.bind(id, ports, vcs, node)
	} else {
		b = newBlock(ports, vcs)
	}
	if id >= 0 && id < len(o.lanes) {
		l := &o.lanes[id]
		if l.c == nil {
			o.fill(l, id, b)
		}
		if l.shape() == b.shape {
			return l
		}
	}
	l := new(lane)
	o.fill(l, id, b)
	return l
}

// fill resolves header l of node id, whose counters are b.
func (o *Observer) fill(l *lane, id int, b *block) {
	*l = lane{c: b.c, queue: &b.queue, tr: o.Tracer, node: int32(id), ports: int16(b.ports), vcs: int16(b.vcs)}
	if o.Flight != nil {
		l.fl = o.Flight.lane(int32(id))
	}
	if w := o.Windows; w != nil && w.fits(id, b.ports, b.vcs) {
		l.win = w
	}
}

func (l *lane) shape() shape { return shape{int(l.ports), int(l.vcs)} }

// port returns the per-port counter at slot of port p.
func (l *lane) port(p, slot int) *Counter { return &l.c[l.shape().port(p, slot)] }

// stall returns the class-k stall counter of input VC (p, v).
func (l *lane) stall(p, v int, k StallKind) *Counter { return &l.c[l.shape().stall(p, v, k)] }

// nodeCounter returns the node-scalar counter at slot.
func (l *lane) nodeCounter(slot int) *Counter { return &l.c[l.shape().node(slot)] }

// emit records one event of the lane's node in its tracer and flight
// rings, whichever are attached. The events built here never carry a
// Detail.
func (l *lane) emit(cy sim.Cycle, kind EventKind, port, vcIdx int8, arg, arg2 int32) {
	if t := l.tr; t != nil && !t.paused.Load() {
		if tl := t.lane(l.node); tl != nil {
			tl.claim().set(cy, kind, port, vcIdx, arg, arg2)
		}
	}
	if f := l.fl; f != nil {
		f.claim().set(cy, kind, port, vcIdx, arg, arg2)
	}
}

// event counts one occurrence at slot of port p and records the event.
func (l *lane) event(p, slot int, cy sim.Cycle, kind EventKind, port, vcIdx int8, arg, arg2 int32) {
	l.port(p, slot).Inc()
	l.emit(cy, kind, port, vcIdx, arg, arg2)
}

// nodeEvent counts one occurrence at node slot and records the event,
// which locates no port or VC.
func (l *lane) nodeEvent(slot int, cy sim.Cycle, kind EventKind, arg, arg2 int32) {
	l.nodeCounter(slot).Inc()
	l.emit(cy, kind, NoPort, NoVC, arg, arg2)
}

// RouterObs is a router's pre-bound instrumentation handle, a view of
// its node's header: the per-event cost inside core.Router is an indexed
// atomic add (and a ring store when recording). A nil *RouterObs means
// observability is disabled, and every method is then a no-op: each one
// tests its receiver first and is small enough to inline
// (TestHandlesInline holds that), so a call site costs one nil test and
// needs no guard of its own. A method whose work does not fit the
// inliner's budget is a nil test around an unexported body.
type RouterObs lane

// BindRouter resolves router id's header. It returns nil when o is nil,
// so core.New can bind unconditionally.
func BindRouter(o *Observer, id, ports, vcs int) *RouterObs {
	if o == nil {
		return nil
	}
	return (*RouterObs)(o.bindLane(id, ports, vcs, false))
}

// Stall records one non-advancing flit-cycle of input VC (port, vcIdx)
// classified as k. The stall scan can fire for every VC every cycle at
// saturation, so no trace event is emitted — the series lives in the
// counters and the windowed stall mix, which is what a drowned tracer
// ring could not show anyway.
func (r *RouterObs) Stall(k StallKind, port, vcIdx int) {
	if r != nil {
		r.stallAt(k, port, vcIdx)
	}
}

func (r *RouterObs) stallAt(k StallKind, port, vcIdx int) {
	l := (*lane)(r)
	l.stall(port, vcIdx, k).Inc()
	if w := l.win; w != nil {
		w.AddStall(int(l.node), port, k)
	}
}

// RCCompute records a completed routing computation for input VC
// (port, vcIdx) toward out; dup marks service by the duplicate unit.
func (r *RouterObs) RCCompute(cy sim.Cycle, port, vcIdx, out int, dup bool) {
	if r != nil {
		r.rcCompute(cy, port, vcIdx, out, dup)
	}
}

func (r *RouterObs) rcCompute(cy sim.Cycle, port, vcIdx, out int, dup bool) {
	l := (*lane)(r)
	l.port(port, slotRCComputes).Inc()
	kind := EvRCCompute
	if dup {
		l.port(port, slotRCDuplicateUses).Inc()
		kind = EvRCDuplicate
	}
	l.emit(cy, kind, int8(port), int8(vcIdx), int32(out), 0)
}

// Reroute records routing for (port, vcIdx) detouring off the XY path
// toward out to avoid a dead link or router.
func (r *RouterObs) Reroute(cy sim.Cycle, port, vcIdx, out int) {
	if r != nil {
		(*lane)(r).event(port, slotReroutes, cy, EvReroute, int8(port), int8(vcIdx), int32(out), 0)
	}
}

// VAAlloc records input VC (port, vcIdx) winning downstream VC dvc at
// output port out.
func (r *RouterObs) VAAlloc(cy sim.Cycle, port, vcIdx, out, dvc int) {
	if r != nil {
		(*lane)(r).event(port, slotVAAllocs, cy, EvVAAlloc, int8(port), int8(vcIdx), int32(out), int32(dvc))
	}
}

// VABorrow records (port, vcIdx) borrowing the stage-1 arbiters of
// sibling VC lender.
func (r *RouterObs) VABorrow(cy sim.Cycle, port, vcIdx, lender int) {
	if r != nil {
		(*lane)(r).event(port, slotVA1Borrows, cy, EvVABorrow, int8(port), int8(vcIdx), int32(lender), 0)
	}
}

// VABorrowStall records (port, vcIdx) waiting a cycle for a lender.
func (r *RouterObs) VABorrowStall(cy sim.Cycle, port, vcIdx int) {
	if r != nil {
		(*lane)(r).event(port, slotVA1BorrowStalls, cy, EvVABorrowStall, int8(port), int8(vcIdx), 0, 0)
	}
}

// VARetry records losers requesters of downstream VC (out, dvc) losing
// their attempt to a faulty stage-2 arbiter.
func (r *RouterObs) VARetry(cy sim.Cycle, out, dvc, losers int) {
	if r != nil {
		r.vaRetry(cy, out, dvc, losers)
	}
}

func (r *RouterObs) vaRetry(cy sim.Cycle, out, dvc, losers int) {
	l := (*lane)(r)
	l.port(out, slotVA2Retries).Add(uint64(losers))
	l.emit(cy, EvVARetry, int8(out), int8(dvc), int32(losers), 0)
}

// SAGrant records input VC (port, vcIdx) winning switch allocation
// toward out; bypass marks a stage-1 grant issued by the bypass path.
func (r *RouterObs) SAGrant(cy sim.Cycle, port, vcIdx, out int, bypass bool) {
	if r != nil {
		r.saGrant(cy, port, vcIdx, out, bypass)
	}
}

func (r *RouterObs) saGrant(cy sim.Cycle, port, vcIdx, out int, bypass bool) {
	l := (*lane)(r)
	l.port(port, slotSAGrants).Inc()
	kind := EvSAGrant
	if bypass {
		kind = EvSABypass
	}
	l.emit(cy, kind, int8(port), int8(vcIdx), int32(out), 0)
}

// SABypassGrant records a stage-1 grant issued by the bypass default
// winner at port (counted even when stage 2 later denies the port).
func (r *RouterObs) SABypassGrant(port int) {
	if r != nil {
		(*lane)(r).port(port, slotSABypassGrants).Inc()
	}
}

// SATransfer records input port adopting sibling VC adopted as the
// bypass default winner dst.
func (r *RouterObs) SATransfer(cy sim.Cycle, port, dst, adopted int) {
	if r != nil {
		(*lane)(r).event(port, slotSATransfers, cy, EvSATransfer, int8(port), NoVC, int32(dst), int32(adopted))
	}
}

// XBTraverse records a flit from (port, vcIdx) crossing to output out;
// secondary marks the protected crossbar's detour path.
func (r *RouterObs) XBTraverse(cy sim.Cycle, port, vcIdx, out int, secondary bool) {
	if r != nil {
		r.xbTraverse(cy, port, vcIdx, out, secondary)
	}
}

func (r *RouterObs) xbTraverse(cy sim.Cycle, port, vcIdx, out int, secondary bool) {
	l := (*lane)(r)
	l.port(out, slotFlitsRouted).Inc()
	kind := EvXBTraverse
	if secondary {
		l.port(out, slotXBSecondary).Inc()
		kind = EvXBSecondary
	}
	l.emit(cy, kind, int8(port), int8(vcIdx), int32(out), 0)
}

// NodeObs is the pre-bound handle for a node's network-side activity:
// link utilization per output port and NI injection/ejection. It is the
// other view of the header its node's RouterObs views. Held by
// noc.Network and noc.NI; nil when observability is disabled, and then
// every method is a no-op, as RouterObs's are.
type NodeObs lane

// BindNode resolves node id's header for its link and NI series. It
// returns nil when o is nil.
func BindNode(o *Observer, id, ports, vcs int) *NodeObs {
	if o == nil {
		return nil
	}
	return (*NodeObs)(o.bindLane(id, ports, vcs, true))
}

// LinkFlit records one flit carried by the node's output link out on
// downstream VC vcIdx (the VC dimension feeds the utilization windows;
// the counter stays per-port).
func (n *NodeObs) LinkFlit(out, vcIdx int) {
	if n != nil {
		n.linkFlit(out, vcIdx)
	}
}

func (n *NodeObs) linkFlit(out, vcIdx int) {
	l := (*lane)(n)
	l.port(out, slotLinkFlits).Inc()
	if w := l.win; w != nil {
		w.AddUtil(int(l.node), out, vcIdx)
	}
}

// NIFlitSent records the NI streaming one flit into the router.
func (n *NodeObs) NIFlitSent() {
	if n != nil {
		(*lane)(n).nodeCounter(slotNIFlitsSent).Inc()
	}
}

// NIOffer records a packet for node dst entering the injection queue.
func (n *NodeObs) NIOffer(cy sim.Cycle, dst int) {
	if n != nil {
		(*lane)(n).nodeEvent(slotNIPacketsOffered, cy, EvNIOffer, int32(dst), 0)
	}
}

// NIEject records a packet delivered at this node with the given
// creation-to-ejection latency.
func (n *NodeObs) NIEject(cy sim.Cycle, latency sim.Cycle) {
	if n != nil {
		(*lane)(n).nodeEvent(slotNIPacketsEjected, cy, EvNIEject, int32(latency), 0)
	}
}

// NIQueueDepth sets the NI's waiting-packet gauge. The NI reports a
// level only when it differs from the one it reported last, so an idle
// NI touches no observability state.
func (n *NodeObs) NIQueueDepth(depth int) {
	if n != nil {
		n.queue.Set(int64(depth))
	}
}

// LinkDrop records a packet for dst discarded at the node's dead
// outgoing link out. The drop feeds the windowed stall mix as
// fault-drain work on that link.
func (n *NodeObs) LinkDrop(cy sim.Cycle, out, dst int) {
	if n != nil {
		n.linkDrop(cy, out, dst)
	}
}

func (n *NodeObs) linkDrop(cy sim.Cycle, out, dst int) {
	l := (*lane)(n)
	if w := l.win; w != nil {
		w.AddStall(int(l.node), out, StallFaultDrain)
	}
	l.event(out, slotLinkDrops, cy, EvLinkDrop, int8(out), NoVC, int32(dst), 0)
}

// DropUnreachable records a packet for dst dropped because no surviving
// path reaches it.
func (n *NodeObs) DropUnreachable(cy sim.Cycle, dst int) {
	if n != nil {
		(*lane)(n).nodeEvent(slotDropsUnreachable, cy, EvDropUnreachable, int32(dst), 0)
	}
}

// NIRetransmit records the NI re-injecting an unacknowledged packet for
// dst after a retransmission-timer expiry; retry is the retransmission
// attempt number (1-based). Every retransmission is timer-driven, so
// ni.retransmits also counts the timer expiries.
func (n *NodeObs) NIRetransmit(cy sim.Cycle, dst, retry int) {
	if n != nil {
		(*lane)(n).nodeEvent(slotNIRetransmits, cy, EvNIRetransmit, int32(dst), int32(retry))
	}
}

// NIDupSuppressed records the sink NI discarding a duplicate delivery of
// a packet from src.
func (n *NodeObs) NIDupSuppressed(cy sim.Cycle, src int) {
	if n != nil {
		(*lane)(n).nodeEvent(slotNIDupsSuppressed, cy, EvNIDupSuppressed, int32(src), 0)
	}
}
