// Package obs is the simulator's observability layer: a metrics registry
// of monotonic counters and gauges keyed by (router, port, VC, kind), and
// a ring-buffered cycle-accurate event tracer with JSON Lines and Chrome
// trace_event sinks.
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
// field is nil — the default — every instrumentation site in the hot path
// reduces to one nil pointer test and no allocation, so the disabled
// simulator profile is indistinguishable from an uninstrumented build
// (bench_test.go keeps the comparison honest). When enabled, components
// resolve their node's lane once at attach time (RouterObs, NodeObs): the
// node's contiguous counter block in the registry, its flight-recorder
// ring and its cells of the current window bucket. Per-event work is then
// an indexed atomic add or two plus, when recording, one 24-byte ring
// store — nothing is looked up, and nothing outside the lane is touched.
//
// # Data flow
//
//	core.Router ──RouterObs──▶ Metrics (counters/gauges)
//	noc.Network/NI ──NodeObs──▶   │             │
//	fault.Injector ──Observer──▶  │          Tracer (ring buffer)
//	watchdog.Monitor ─Observer─▶  │             │
//	                              ▼             ▼
//	              noctool metrics table   trace.json (Chrome) / JSONL
//
// The Tracer retains the most recent window of events (ring buffer), so
// arbitrarily long campaigns stay bounded in memory while the tail — the
// part that explains how the simulation ended — is always available.
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
	// series (the /heatmap and noctool heatmap source), or nil.
	Windows *Windows
	// Flight is the always-on bounded flight recorder, dumped when a
	// watchdog or nocassert anomaly trips, or nil.
	Flight *FlightRecorder
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

// CheckShape reports whether every attached surface was sized for a
// network of nodes routers with the given port and VC counts. The
// window ring and the flight recorder index their storage by node, port
// and VC without further checks, so a network must not bind to surfaces
// of another geometry; nor may a registry already holding one of its
// routers' blocks in a different shape.
func (o *Observer) CheckShape(nodes, ports, vcs int) error {
	if w := o.Windows; w != nil && (w.nodes != nodes || w.ports != ports || w.vcs != vcs) {
		return fmt.Errorf("obs: Windows sized for %d nodes, %d ports, %d VCs attached to a network of %d nodes, %d ports, %d VCs",
			w.nodes, w.ports, w.vcs, nodes, ports, vcs)
	}
	if f := o.Flight; f != nil && len(f.lanes) != nodes {
		return fmt.Errorf("obs: FlightRecorder sized for %d nodes attached to a network of %d nodes", len(f.lanes), nodes)
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

// lane is one node's slice of every collection surface, resolved once at
// bind time so an instrumentation site touches nothing else: the node's
// counter block, its flight-recorder lane, its window cells and the
// tracer. RouterObs and NodeObs of one node are two views of the same
// lane storage.
type lane struct {
	id     int32
	vcs    int
	stride int       // counters per port in c (see the block layout)
	c      []Counter // the node's counter block
	tr     *Tracer
	fl     *flightLane
	win    *windowLane
}

// bindLane resolves node id's lane. Without a registry the handle counts
// into a private block nobody reads, which keeps the per-event path free
// of nil tests.
func bindLane(o *Observer, id, ports, vcs int, node bool) (lane, *block) {
	var b *block
	if o.Metrics != nil {
		b = o.Metrics.bind(id, ports, vcs, node)
	} else {
		b = newBlock(ports, vcs)
	}
	l := lane{id: int32(id), vcs: vcs, stride: b.stride, c: b.c, tr: o.Tracer}
	if o.Flight != nil {
		l.fl = o.Flight.lane(int32(id))
	}
	if o.Windows != nil {
		l.win = o.Windows.lane(id, ports, vcs)
	}
	return l, b
}

// port returns the per-port counter at slot of port p.
func (l *lane) port(p, slot int) *Counter { return &l.c[p*l.stride+slot] }

// stall returns the class-k stall counter of input VC (p, v).
func (l *lane) stall(p, v int, k StallKind) *Counter {
	return &l.c[p*l.stride+numPortSlots+v*NumStallKinds+int(k)]
}

// node returns the node-scalar counter at slot.
func (l *lane) node(slot int) *Counter { return &l.c[len(l.c)-numNodeSlots+slot] }

// emit records one event of the lane's node in the tracer and the
// flight lane, whichever are attached. The events built here never carry
// a Detail.
func (l *lane) emit(cy sim.Cycle, kind EventKind, port, vcIdx int8, arg, arg2 int32) {
	if t := l.tr; t != nil && !t.paused.Load() {
		t.Emit(Event{Cycle: cy, Kind: kind, Router: l.id, Port: port, VC: vcIdx, Arg: arg, Arg2: arg2})
	}
	if f := l.fl; f != nil {
		f.put(flightSlot{cycle: cy, arg: arg, arg2: arg2, kind: kind, port: port, vc: vcIdx})
	}
}

// RouterObs is a router's pre-bound instrumentation handle: the router's
// lane is resolved once here, so the per-event cost inside core.Router is
// an indexed atomic add (and a ring store when recording). A nil
// *RouterObs means observability is disabled; callers guard with a
// single nil check.
type RouterObs struct{ lane }

// BindRouter resolves router id's lane. It returns nil when o is nil, so
// core.New can bind unconditionally.
func BindRouter(o *Observer, id, ports, vcs int) *RouterObs {
	if o == nil {
		return nil
	}
	l, _ := bindLane(o, id, ports, vcs, false)
	return &RouterObs{l}
}

// Stall records one non-advancing flit-cycle of input VC (port, vcIdx)
// classified as k. The stall scan can fire for every VC every cycle at
// saturation, so no trace event is emitted — the series lives in the
// counters and the windowed stall mix, which is what a drowned tracer
// ring could not show anyway.
func (r *RouterObs) Stall(k StallKind, port, vcIdx int) {
	r.stall(port, vcIdx, k).Inc()
	if w := r.win; w != nil {
		w.addStall(port, k)
	}
}

// RCCompute records a completed routing computation for input VC
// (port, vcIdx) toward out; dup marks service by the duplicate unit.
func (r *RouterObs) RCCompute(cy sim.Cycle, port, vcIdx, out int, dup bool) {
	r.port(port, slotRCComputes).Inc()
	kind := EvRCCompute
	if dup {
		r.port(port, slotRCDuplicateUses).Inc()
		kind = EvRCDuplicate
	}
	r.emit(cy, kind, int8(port), int8(vcIdx), int32(out), 0)
}

// Reroute records routing for (port, vcIdx) detouring off the XY path
// toward out to avoid a dead link or router.
func (r *RouterObs) Reroute(cy sim.Cycle, port, vcIdx, out int) {
	r.port(port, slotReroutes).Inc()
	r.emit(cy, EvReroute, int8(port), int8(vcIdx), int32(out), 0)
}

// VAAlloc records input VC (port, vcIdx) winning downstream VC dvc at
// output port out.
func (r *RouterObs) VAAlloc(cy sim.Cycle, port, vcIdx, out, dvc int) {
	r.port(port, slotVAAllocs).Inc()
	r.emit(cy, EvVAAlloc, int8(port), int8(vcIdx), int32(out), int32(dvc))
}

// VABorrow records (port, vcIdx) borrowing the stage-1 arbiters of
// sibling VC lender.
func (r *RouterObs) VABorrow(cy sim.Cycle, port, vcIdx, lender int) {
	r.port(port, slotVA1Borrows).Inc()
	r.emit(cy, EvVABorrow, int8(port), int8(vcIdx), int32(lender), 0)
}

// VABorrowStall records (port, vcIdx) waiting a cycle for a lender.
func (r *RouterObs) VABorrowStall(cy sim.Cycle, port, vcIdx int) {
	r.port(port, slotVA1BorrowStalls).Inc()
	r.emit(cy, EvVABorrowStall, int8(port), int8(vcIdx), 0, 0)
}

// VARetry records losers requesters of downstream VC (out, dvc) losing
// their attempt to a faulty stage-2 arbiter.
func (r *RouterObs) VARetry(cy sim.Cycle, out, dvc, losers int) {
	r.port(out, slotVA2Retries).Add(uint64(losers))
	r.emit(cy, EvVARetry, int8(out), int8(dvc), int32(losers), 0)
}

// SAGrant records input VC (port, vcIdx) winning switch allocation
// toward out; bypass marks a stage-1 grant issued by the bypass path.
func (r *RouterObs) SAGrant(cy sim.Cycle, port, vcIdx, out int, bypass bool) {
	r.port(port, slotSAGrants).Inc()
	kind := EvSAGrant
	if bypass {
		kind = EvSABypass
	}
	r.emit(cy, kind, int8(port), int8(vcIdx), int32(out), 0)
}

// SABypassGrant records a stage-1 grant issued by the bypass default
// winner at port (counted even when stage 2 later denies the port).
func (r *RouterObs) SABypassGrant(port int) { r.port(port, slotSABypassGrants).Inc() }

// SATransfer records input port adopting sibling VC adopted as the
// bypass default winner dst.
func (r *RouterObs) SATransfer(cy sim.Cycle, port, dst, adopted int) {
	r.port(port, slotSATransfers).Inc()
	r.emit(cy, EvSATransfer, int8(port), NoVC, int32(dst), int32(adopted))
}

// XBTraverse records a flit from (port, vcIdx) crossing to output out;
// secondary marks the protected crossbar's detour path.
func (r *RouterObs) XBTraverse(cy sim.Cycle, port, vcIdx, out int, secondary bool) {
	r.port(out, slotFlitsRouted).Inc()
	kind := EvXBTraverse
	if secondary {
		r.port(out, slotXBSecondary).Inc()
		kind = EvXBSecondary
	}
	r.emit(cy, kind, int8(port), int8(vcIdx), int32(out), 0)
}

// NodeObs is the pre-bound handle for a node's network-side activity:
// link utilization per output port and NI injection/ejection. Held by
// noc.Network and noc.NI; nil when observability is disabled.
type NodeObs struct {
	lane
	queue *Gauge
	// depth is the level last stored to queue. The NI reports its queue
	// every cycle and an idle NI's is 0 every time, so only a change is
	// worth the store. One NI ticks one NodeObs, so the field has a
	// single writer.
	depth int
}

// BindNode resolves node id's lane for its link and NI series. It
// returns nil when o is nil.
func BindNode(o *Observer, id, ports, vcs int) *NodeObs {
	if o == nil {
		return nil
	}
	l, b := bindLane(o, id, ports, vcs, true)
	return &NodeObs{lane: l, queue: &b.queue}
}

// LinkFlit records one flit carried by the node's output link out on
// downstream VC vcIdx (the VC dimension feeds the utilization windows;
// the counter stays per-port).
func (n *NodeObs) LinkFlit(out, vcIdx int) {
	n.port(out, slotLinkFlits).Inc()
	if w := n.win; w != nil {
		w.addUtil(out*n.vcs + vcIdx)
	}
}

// NIFlitSent records the NI streaming one flit into the router.
func (n *NodeObs) NIFlitSent() { n.node(slotNIFlitsSent).Inc() }

// NIOffer records a packet for node dst entering the injection queue.
func (n *NodeObs) NIOffer(cy sim.Cycle, dst int) {
	n.node(slotNIPacketsOffered).Inc()
	n.emit(cy, EvNIOffer, NoPort, NoVC, int32(dst), 0)
}

// NIEject records a packet delivered at this node with the given
// creation-to-ejection latency.
func (n *NodeObs) NIEject(cy sim.Cycle, latency sim.Cycle) {
	n.node(slotNIPacketsEjected).Inc()
	n.emit(cy, EvNIEject, NoPort, NoVC, int32(latency), 0)
}

// NIQueueDepth updates the NI's waiting-packet gauge.
func (n *NodeObs) NIQueueDepth(depth int) {
	if depth != n.depth {
		n.depth = depth
		n.queue.Set(int64(depth))
	}
}

// LinkDrop records a packet for dst discarded at the node's dead
// outgoing link out. The drop feeds the windowed stall mix as
// fault-drain work on that link.
func (n *NodeObs) LinkDrop(cy sim.Cycle, out, dst int) {
	n.port(out, slotLinkDrops).Inc()
	if w := n.win; w != nil {
		w.addStall(out, StallFaultDrain)
	}
	n.emit(cy, EvLinkDrop, int8(out), NoVC, int32(dst), 0)
}

// DropUnreachable records a packet for dst dropped because no surviving
// path reaches it.
func (n *NodeObs) DropUnreachable(cy sim.Cycle, dst int) {
	n.node(slotDropsUnreachable).Inc()
	n.emit(cy, EvDropUnreachable, NoPort, NoVC, int32(dst), 0)
}

// NIRetransmit records the NI re-injecting an unacknowledged packet for
// dst after a retransmission-timer expiry; retry is the retransmission
// attempt number (1-based). Every retransmission today is timer-driven,
// so the timeout counter moves in lockstep.
func (n *NodeObs) NIRetransmit(cy sim.Cycle, dst, retry int) {
	n.node(slotNIRetransmits).Inc()
	n.node(slotNIRetxTimeouts).Inc()
	n.emit(cy, EvNIRetransmit, NoPort, NoVC, int32(dst), int32(retry))
}

// NIDupSuppressed records the sink NI discarding a duplicate delivery of
// a packet from src.
func (n *NodeObs) NIDupSuppressed(cy sim.Cycle, src int) {
	n.node(slotNIDupsSuppressed).Inc()
	n.emit(cy, EvNIDupSuppressed, NoPort, NoVC, int32(src), 0)
}
