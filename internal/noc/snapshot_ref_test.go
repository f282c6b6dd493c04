package noc

import (
	"fmt"
	"slices"

	"gonoc/internal/core"
	"gonoc/internal/flit"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

// This file keeps the network snapshot that the flat layout of
// snapshot.go replaced, verbatim but for the ref prefix: one slice per
// saved field, router states and the collector behind pointers, flits and
// packets cloned one heap object each through a memoizing cloner with two
// pointer-keyed maps. It is the oracle of FuzzSnapshotMatchesReference.
// The router states it holds come from the production core.SaveStateInto
// (core keeps its own field-by-field reference, snapshot_ref_test.go
// there); everything at network level is the old code.

// refSnap is the old Snapshot: about 130 heap objects on a 2x2.
type refSnap struct {
	// shape is the dimensions of the network the snapshot was taken
	// from: the only networks Restore accepts it on, and the only ones
	// SnapshotInto reuses its storage for.
	shape refShape

	cycle  sim.Cycle
	nextID uint64

	routers []*core.RouterState
	nis     []refNIState

	inFlits     [][]inFlit
	inCredits   [][]credit
	inNICredits [][]credit

	linkFlits [][]uint64

	linkDead   [][]bool
	routerDead []bool
	midFlight  []uint64
	linkDrop   []uint64

	seqNext   []uint64
	retx      [][]retxEntry
	delivered []map[int]*seqWindow

	stats *stats.Collector
}

// refShape is the old snapShape: counts only.
type refShape struct{ nodes, ports, vcs, classes int }

func (n *Network) refShape() refShape {
	return refShape{nodes: len(n.routers), ports: n.ports, vcs: n.cfg.Router.VCs, classes: n.cfg.Router.Classes}
}

// refNIState is the saved form of one network interface.
type refNIState struct {
	queues    [][]*flit.Packet
	active    [][]*flit.Flit
	activeVCs int
	vcBusy    []bool
	credits   []int
	sendScan  int
}

// refCloner is the old cloner: it deep-copies flits and packets with
// identity preservation, every distinct live *Packet mapping to exactly
// one clone. (A network owned one and reset it; the reference builds one
// per call.)
type refCloner struct {
	pkts  map[*flit.Packet]*flit.Packet
	flits map[*flit.Flit]*flit.Flit
	// flitFn is the flit method bound once, for core's SaveStateInto
	// and RestoreState.
	flitFn func(*flit.Flit) *flit.Flit
}

func newRefCloner() *refCloner {
	c := &refCloner{pkts: map[*flit.Packet]*flit.Packet{}, flits: map[*flit.Flit]*flit.Flit{}}
	c.flitFn = c.flit
	return c
}

func (c *refCloner) pkt(p *flit.Packet) *flit.Packet {
	if p == nil {
		return nil
	}
	if cp, ok := c.pkts[p]; ok {
		return cp
	}
	cp := *p
	c.pkts[p] = &cp
	return &cp
}

func (c *refCloner) flit(f *flit.Flit) *flit.Flit {
	if f == nil {
		return nil
	}
	if cf, ok := c.flits[f]; ok {
		return cf
	}
	cf := *f
	cf.Pkt = c.pkt(f.Pkt)
	c.flits[f] = &cf
	return &cf
}

// refSnapshot is the old Snapshot.
func (n *Network) refSnapshot() *refSnap { return n.refSnapshotInto(nil) }

// refSnapshotInto is the old SnapshotInto.
func (n *Network) refSnapshotInto(old *refSnap) *refSnap {
	s := old
	if sh := n.refShape(); s == nil || s.shape != sh {
		s = newRefSnapshot(sh)
	}
	cl := newRefCloner()
	s.cycle = n.cycle
	s.nextID = n.nextID
	copy(s.routerDead, n.routerDead)
	copy(s.midFlight, n.midFlight)
	copy(s.linkDrop, n.linkDrop)
	copy(s.seqNext, n.seqNext)
	s.stats.CopyFrom(n.stats)
	for id := range n.routers {
		s.routers[id] = n.routers[id].SaveStateInto(s.routers[id], cl.flitFn)
		refSaveNI(&s.nis[id], n.nis[id], cl)

		fl := s.inFlits[id][:0]
		for _, w := range n.inFlits[id] {
			fl = append(fl, inFlit{in: w.in, vc: w.vc, f: cl.flit(w.f)})
		}
		s.inFlits[id] = fl
		s.inCredits[id] = append(s.inCredits[id][:0], n.inCredits[id]...)
		s.inNICredits[id] = append(s.inNICredits[id][:0], n.inNICredits[id]...)

		copy(s.linkFlits[id], n.linkFlits[id])
		copy(s.linkDead[id], n.linkDead[id])
		s.retx[id] = append(s.retx[id][:0], n.retx[id]...)
		s.delivered[id] = copyWindows(s.delivered[id], n.delivered[id])
	}
	return s
}

// newRefSnapshot allocates the storage of a snapshot of the given shape.
// It sets no values: refSnapshotInto writes every field of a fresh
// snapshot and of a recycled one through the same assignments.
func newRefSnapshot(sh refShape) *refSnap {
	s := &refSnap{
		shape: sh,

		routers: make([]*core.RouterState, sh.nodes),
		nis:     make([]refNIState, sh.nodes),

		inFlits:     make([][]inFlit, sh.nodes),
		inCredits:   make([][]credit, sh.nodes),
		inNICredits: make([][]credit, sh.nodes),

		linkFlits: makeGrid[uint64](sh.nodes, sh.ports),

		linkDead:   makeGrid[bool](sh.nodes, sh.ports),
		routerDead: make([]bool, sh.nodes),
		midFlight:  make([]uint64, sh.nodes*sh.ports),
		linkDrop:   make([]uint64, sh.nodes*sh.ports),

		seqNext:   make([]uint64, sh.nodes),
		retx:      make([][]retxEntry, sh.nodes),
		delivered: make([]map[int]*seqWindow, sh.nodes),

		stats: new(stats.Collector),
	}
	queues := make([][]*flit.Packet, sh.nodes*sh.classes)
	active := make([][]*flit.Flit, sh.nodes*sh.vcs)
	busy := makeGrid[bool](sh.nodes, sh.vcs)
	credits := makeGrid[int](sh.nodes, sh.vcs)
	for id := range s.nis {
		s.nis[id] = refNIState{
			queues:  queues[id*sh.classes : (id+1)*sh.classes],
			active:  active[id*sh.vcs : (id+1)*sh.vcs],
			vcBusy:  busy[id],
			credits: credits[id],
		}
	}
	return s
}

func refSaveNI(s *refNIState, ni *NI, cl *refCloner) {
	s.activeVCs = ni.activeVCs
	s.sendScan = ni.sendScan
	copy(s.vcBusy, ni.vcBusy)
	copy(s.credits, ni.credits)
	for cls, q := range ni.queues {
		qs := s.queues[cls][:0]
		for _, p := range q {
			qs = append(qs, cl.pkt(p))
		}
		s.queues[cls] = qs
	}
	for v, fl := range ni.active {
		fs := s.active[v][:0]
		for _, f := range fl {
			fs = append(fs, cl.flit(f))
		}
		s.active[v] = fs
	}
}

// refRestore is the old Restore.
func (n *Network) refRestore(s *refSnap) {
	if s.shape != n.refShape() {
		panic(fmt.Sprintf("noc: Restore: snapshot of a %+v network restored into a %+v one", s.shape, n.refShape()))
	}
	// The fault-aware routing tables are a pure function of the link and
	// router fault sets, so the rebuild at the end is only needed when
	// the snapshot's fault sets differ from the network's current ones.
	// The model checker restores thousands of same-fault-set snapshots
	// per scenario; skipping the rebuild there is a large win.
	faultsChanged := !slices.Equal(n.routerDead, s.routerDead)
	for id := 0; id < len(n.linkDead) && !faultsChanged; id++ {
		faultsChanged = !slices.Equal(n.linkDead[id], s.linkDead[id])
	}

	cl := newRefCloner()
	n.cycle = s.cycle
	n.nextID = s.nextID
	copy(n.routerDead, s.routerDead)
	copy(n.midFlight, s.midFlight)
	copy(n.linkDrop, s.linkDrop)
	copy(n.seqNext, s.seqNext)
	n.stats.CopyFrom(s.stats)

	for id := range n.routers {
		n.routers[id].RestoreState(s.routers[id], cl.flitFn)
		refRestoreNI(n.nis[id], &s.nis[id], cl)

		n.inFlits[id] = n.inFlits[id][:0]
		for _, w := range s.inFlits[id] {
			n.inFlits[id] = append(n.inFlits[id],
				inFlit{in: w.in, vc: w.vc, f: cl.flit(w.f)})
		}
		n.inCredits[id] = append(n.inCredits[id][:0], s.inCredits[id]...)
		n.inNICredits[id] = append(n.inNICredits[id][:0], s.inNICredits[id]...)

		copy(n.linkFlits[id], s.linkFlits[id])
		copy(n.linkDead[id], s.linkDead[id])
		n.retx[id] = append(n.retx[id][:0], s.retx[id]...)
		n.delivered[id] = copyWindows(n.delivered[id], s.delivered[id])

		// Staged compute outputs alias router buffers that RestoreState
		// just reset; drop the stale views.
		n.stagedFlits[id] = nil
		n.stagedCredits[id] = nil
	}
	if faultsChanged {
		// Rebuild (or drop) the fault-aware tables from the restored
		// fault sets. rebuildRoutes reinstalls the topology's baseline
		// RouteFn (nil for mesh/cmesh, the dateline torusRoute for a
		// torus) when the restored state is fault free.
		n.rebuildRoutes()
	}
}

// refRestoreNI overwrites the NI's queues and in-progress packets in
// place. The live slices are re-sliced forward by tick (and active
// entries replaced by flit.Segment's), so the backing arrays restore
// refills are kept whole in queueBuf/activeBuf and the live slices
// re-pointed at them.
func refRestoreNI(ni *NI, s *refNIState, cl *refCloner) {
	ni.activeVCs = s.activeVCs
	ni.sendScan = s.sendScan
	copy(ni.vcBusy, s.vcBusy)
	copy(ni.credits, s.credits)
	if ni.queueBuf == nil {
		ni.queueBuf = make([][]*flit.Packet, len(ni.queues))
		ni.activeBuf = make([][]*flit.Flit, len(ni.active))
	}
	ni.queued = 0
	for cls := range ni.queues {
		q := ni.queueBuf[cls][:0]
		for _, p := range s.queues[cls] {
			q = append(q, cl.pkt(p))
		}
		ni.queueBuf[cls] = q
		ni.queues[cls] = q
		ni.queued += len(q)
	}
	for v := range ni.active {
		if len(s.active[v]) == 0 {
			ni.active[v] = nil
			continue
		}
		fs := ni.activeBuf[v][:0]
		for _, f := range s.active[v] {
			fs = append(fs, cl.flit(f))
		}
		ni.activeBuf[v] = fs
		ni.active[v] = fs
	}
}
