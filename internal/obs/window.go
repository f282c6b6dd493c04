package obs

import (
	"sort"
	"sync/atomic"

	"gonoc/internal/sim"
)

// Default window geometry: 1k-cycle buckets, 16 buckets retained. At
// 64×64 that is ~21 MB of uint32 cells — opt-in cost, paid only when a
// Windows is attached.
const (
	DefaultBucketCycles sim.Cycle = 1024
	DefaultWindowBucket           = 16
)

// Windows is a fixed-size ring of per-link utilization and stall-mix
// windows: every bucketCycles cycles the current bucket closes and the
// oldest is recycled, so a long run always retains the most recent
// time-resolved view of where flits flowed and where cycles stalled.
//
// Cells are plain uint32 accessed only through sync/atomic, so samples
// from the parallel compute phase and reads from a live telemetry
// scrape are race-free. Roll must run in the network's serial phase
// (it is registered as a cycle hook by noc.New): it re-aims every node's
// lane at the new bucket, which no adder may be reading meanwhile.
//
// Utilization is kept per (node, output port, VC); the stall mix per
// (node, input port, StallKind) — summed over VCs to bound memory. The
// per-VC stall resolution lives in the KStall* counters.
type Windows struct {
	nodes, ports, vcs int
	bucketCycles      sim.Cycle
	buckets           int

	cur      atomic.Int32  // ring slot receiving current-cycle samples
	curStart atomic.Uint64 // first cycle of the current bucket
	last     atomic.Uint64 // most recent cycle seen by Roll
	rolled   atomic.Uint64 // buckets completed over the lifetime

	util  []uint32 // [bucket][node][port][vc]
	stall []uint32 // [bucket][node][port][stallKind]

	lanes []windowLane // per node, aimed at the current bucket
}

// windowLane is one node's cells of the current bucket: util indexed
// out*vcs+vc, stall indexed port*NumStallKinds+kind. Roll re-aims it, so
// an adder indexes its node's cells without recomputing where the
// current bucket's start is.
type windowLane struct {
	util, stall []uint32
}

func (l *windowLane) addUtil(cell int) { atomic.AddUint32(&l.util[cell], 1) }

func (l *windowLane) addStall(port int, k StallKind) {
	atomic.AddUint32(&l.stall[port*NumStallKinds+int(k)], 1)
}

// NewWindows returns a window ring for a nodes-router network with the
// given port and VC counts. bucketCycles <= 0 and buckets < 2 select
// the defaults.
func NewWindows(nodes, ports, vcs int, bucketCycles sim.Cycle, buckets int) *Windows {
	if bucketCycles <= 0 {
		bucketCycles = DefaultBucketCycles
	}
	if buckets < 2 {
		buckets = DefaultWindowBucket
	}
	w := &Windows{
		nodes: nodes, ports: ports, vcs: vcs,
		bucketCycles: bucketCycles, buckets: buckets,
		util:  make([]uint32, buckets*nodes*ports*vcs),
		stall: make([]uint32, buckets*nodes*ports*NumStallKinds),
		lanes: make([]windowLane, nodes),
	}
	w.aim(0)
	return w
}

// lane returns node's lane for a handle of the given geometry, or nil
// when the ring was sized for another one (noc.New refuses such a ring; a
// handle bound to it by hand adds no samples). The pointer stays valid
// for the ring's life.
func (w *Windows) lane(node, ports, vcs int) *windowLane {
	if node < 0 || node >= w.nodes || ports != w.ports || vcs != w.vcs {
		return nil
	}
	return &w.lanes[node]
}

// aim points every lane at ring slot b's cells.
func (w *Windows) aim(b int) {
	u, s := w.ports*w.vcs, w.ports*NumStallKinds
	for node := range w.lanes {
		cell := b*w.nodes + node
		w.lanes[node] = windowLane{
			util:  w.util[cell*u : (cell+1)*u : (cell+1)*u],
			stall: w.stall[cell*s : (cell+1)*s : (cell+1)*s],
		}
	}
}

// AddUtil records one flit carried by node's output link out on VC
// vcIdx. Safe from the parallel compute/commit phases.
func (w *Windows) AddUtil(node, out, vcIdx int) { w.lanes[node].addUtil(out*w.vcs + vcIdx) }

// AddStall records one stalled flit-cycle of class k at node's input
// port. Safe from the parallel compute/commit phases.
func (w *Windows) AddStall(node, port int, k StallKind) { w.lanes[node].addStall(port, k) }

// Roll closes the current bucket once bucketCycles have elapsed and
// reopens the oldest ring slot for the new window. It is registered as
// a network cycle hook — the serial pre-phase of Step — so it never
// races the compute-phase adders; the per-cell stores stay atomic only
// for concurrent scrape readers.
func (w *Windows) Roll(c sim.Cycle) {
	w.last.Store(uint64(c))
	if c-sim.Cycle(w.curStart.Load()) < w.bucketCycles {
		return
	}
	next := (int(w.cur.Load()) + 1) % w.buckets
	uo := next * w.nodes * w.ports * w.vcs
	for i := uo; i < uo+w.nodes*w.ports*w.vcs; i++ {
		atomic.StoreUint32(&w.util[i], 0)
	}
	so := next * w.nodes * w.ports * NumStallKinds
	for i := so; i < so+w.nodes*w.ports*NumStallKinds; i++ {
		atomic.StoreUint32(&w.stall[i], 0)
	}
	w.cur.Store(int32(next))
	w.aim(next)
	w.curStart.Store(uint64(c))
	w.rolled.Add(1)
}

// WindowBucket is one retained window: Start is its first cycle,
// Cycles how many cycles it covers (a partial final bucket covers
// fewer than the configured width).
type WindowBucket struct {
	Start   sim.Cycle
	Cycles  sim.Cycle
	Partial bool
	Util    []uint32 // (node*ports+out)*vcs + vc
	Stall   []uint32 // (node*ports+port)*NumStallKinds + kind
}

// WindowSnapshot is a copy of the retained windows, oldest first; the
// last bucket is the in-progress one (Partial). Taken between steps it
// is deterministic and bit-exact at any worker count; taken during a
// live scrape it is a monitoring-grade view whose newest cells may be
// mid-cycle.
type WindowSnapshot struct {
	Nodes, Ports, VCs int
	BucketCycles      sim.Cycle
	Buckets           []WindowBucket
}

// Snapshot copies the retained windows.
func (w *Windows) Snapshot() WindowSnapshot {
	cur := int(w.cur.Load())
	start := sim.Cycle(w.curStart.Load())
	last := sim.Cycle(w.last.Load())
	completed := int(w.rolled.Load())
	if completed > w.buckets-1 {
		completed = w.buckets - 1
	}
	s := WindowSnapshot{
		Nodes: w.nodes, Ports: w.ports, VCs: w.vcs,
		BucketCycles: w.bucketCycles,
		Buckets:      make([]WindowBucket, 0, completed+1),
	}
	ustride := w.nodes * w.ports * w.vcs
	sstride := w.nodes * w.ports * NumStallKinds
	copyCells := func(dst, src []uint32) {
		for i := range src {
			dst[i] = atomic.LoadUint32(&src[i])
		}
	}
	for i := completed; i >= 0; i-- {
		b := ((cur-i)%w.buckets + w.buckets) % w.buckets
		wb := WindowBucket{
			Start:  start - sim.Cycle(i)*w.bucketCycles,
			Cycles: w.bucketCycles,
			Util:   make([]uint32, ustride),
			Stall:  make([]uint32, sstride),
		}
		if i == 0 {
			wb.Partial = true
			wb.Cycles = last - start + 1
			if last < start {
				wb.Cycles = 0
			}
		}
		copyCells(wb.Util, w.util[b*ustride:(b+1)*ustride])
		copyCells(wb.Stall, w.stall[b*sstride:(b+1)*sstride])
		s.Buckets = append(s.Buckets, wb)
	}
	return s
}

// Cycles returns the total cycle span the snapshot covers.
func (s *WindowSnapshot) Cycles() sim.Cycle {
	var n sim.Cycle
	for _, b := range s.Buckets {
		n += b.Cycles
	}
	return n
}

// LinkTotal is one output link's activity summed over a snapshot's
// windows. Stalls are the ones scanned at the link's router input port
// of the same index — a per-router port view, pairing the flits a port
// carried out with the waits observed at that port's input side.
type LinkTotal struct {
	// Node is the upstream router; Port its output port.
	Node, Port int
	// Flits is the flit count carried, summed over VCs and windows.
	Flits uint64
	// PerVC resolves Flits by downstream VC.
	PerVC []uint64
	// Stalls is the stall-mix by class at the router's same-index input
	// port over the same windows.
	Stalls [NumStallKinds]uint64
}

// LinkTotals aggregates the snapshot over its windows, sorted by
// (node, port).
func (s *WindowSnapshot) LinkTotals() []LinkTotal {
	out := make([]LinkTotal, 0, s.Nodes*s.Ports)
	for node := 0; node < s.Nodes; node++ {
		for port := 0; port < s.Ports; port++ {
			lt := LinkTotal{Node: node, Port: port, PerVC: make([]uint64, s.VCs)}
			for _, b := range s.Buckets {
				uo := (node*s.Ports + port) * s.VCs
				for v := 0; v < s.VCs; v++ {
					lt.PerVC[v] += uint64(b.Util[uo+v])
					lt.Flits += uint64(b.Util[uo+v])
				}
				so := (node*s.Ports + port) * NumStallKinds
				for k := 0; k < NumStallKinds; k++ {
					lt.Stalls[k] += uint64(b.Stall[so+k])
				}
			}
			out = append(out, lt)
		}
	}
	return out
}

// TopLinks returns the n busiest links by carried flits (ties broken by
// node then port, so the order is deterministic). Links that carried
// nothing are excluded.
func (s *WindowSnapshot) TopLinks(n int) []LinkTotal {
	all := s.LinkTotals()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Flits != b.Flits {
			return a.Flits > b.Flits
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Port < b.Port
	})
	for i, lt := range all {
		if lt.Flits == 0 {
			all = all[:i]
			break
		}
	}
	if n >= 0 && len(all) > n {
		all = all[:n]
	}
	return all
}
