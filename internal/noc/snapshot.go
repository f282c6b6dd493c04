package noc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"gonoc/internal/core"
	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

// Canonical-encoding helpers, mirroring internal/core's.
func appI(b []byte, v int) []byte    { return binary.AppendVarint(b, int64(v)) }
func appU(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appB(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Deep snapshot/restore of a Network at a step boundary, plus a
// canonical byte encoding of the behaviour-relevant state. These are
// the enablers for the model-checking tier (internal/modelcheck), which
// snapshots a state, explores one successor, and rolls back — and the
// per-network half of the checkpoint/restore groundwork the ROADMAP's
// campaign-server item needs.
//
// Snapshot and Restore must be called between Steps (never from a
// hook). At that boundary the router-internal I/O latches are empty —
// inputs were drained at the top of Tick, outputs were taken by the
// commit phase — and all in-flight traffic lives in the network's
// inbound latches (inFlits/inCredits/inNICredits), which the snapshot
// captures.
//
// Both directions are on the model checker's per-transition path, so
// both overwrite storage in place: SnapshotInto fills a snapshot the
// caller is finished with, Restore fills the network's own slices, maps
// and collector, and what either allocates in the steady state is the
// flit and packet clones alone (TestModelCheckTransitionAllocs).

// Snapshot is a deep, self-contained copy of a Network's mutable state.
// It holds no aliases into the live network: packets and flits are
// cloned with identity preserved (all flits of one packet share one
// cloned *Packet), so a snapshot can be restored any number of times.
type Snapshot struct {
	// shape is the dimensions of the network the snapshot was taken
	// from: the only networks Restore accepts it on, and the only ones
	// SnapshotInto reuses its storage for.
	shape snapShape

	cycle  sim.Cycle
	nextID uint64

	routers []*core.RouterState
	nis     []niState

	inFlits     [][]router.InFlit
	inCredits   [][]core.CreditIn
	inNICredits [][]router.Credit

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

// snapShape is what every slice length in a Snapshot derives from.
type snapShape struct{ nodes, ports, vcs, classes int }

func (n *Network) shape() snapShape {
	return snapShape{nodes: len(n.routers), ports: n.ports, vcs: n.cfg.Router.VCs, classes: n.cfg.Router.Classes}
}

// niState is the saved form of one network interface.
type niState struct {
	queues    [][]*flit.Packet
	active    [][]*flit.Flit
	activeVCs int
	vcBusy    []bool
	credits   []int
	sendScan  int
}

// cloner deep-copies flits and packets with identity preservation: every
// distinct live *Packet maps to exactly one clone, so the flits of a
// packet split between an NI and router buffers still share their
// packet after a round trip. A network owns one and resets it for each
// Snapshot or Restore, so neither rebuilds the maps.
type cloner struct {
	pkts  map[*flit.Packet]*flit.Packet
	flits map[*flit.Flit]*flit.Flit
	// flitFn is the flit method bound once, for core's SaveStateInto
	// and RestoreState.
	flitFn func(*flit.Flit) *flit.Flit
}

func newCloner() *cloner {
	c := &cloner{pkts: map[*flit.Packet]*flit.Packet{}, flits: map[*flit.Flit]*flit.Flit{}}
	c.flitFn = c.flit
	return c
}

func (c *cloner) reset() *cloner {
	clear(c.pkts)
	clear(c.flits)
	return c
}

func (c *cloner) pkt(p *flit.Packet) *flit.Packet {
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

func (c *cloner) flit(f *flit.Flit) *flit.Flit {
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

// Snapshot captures the network's complete mutable state. The receiver
// is unchanged; the returned snapshot shares nothing with it.
func (n *Network) Snapshot() *Snapshot { return n.SnapshotInto(nil) }

// SnapshotInto is Snapshot writing into old's storage: every field of
// old is overwritten and old is returned, so a caller that takes many
// snapshots and is finished with some — the model checker, once a
// frontier state is fully expanded — pays for the flit and packet
// clones only. The caller must own old outright: whatever it held is
// gone. Restore never consumes a snapshot, so handing storage back is
// always the caller's decision. A nil old, or one taken from a network
// of another shape (node, port, VC or class count), is left untouched
// and a fresh snapshot is returned instead.
func (n *Network) SnapshotInto(old *Snapshot) *Snapshot {
	s := old
	if sh := n.shape(); s == nil || s.shape != sh {
		s = newSnapshot(sh)
	}
	cl := n.cl.reset()
	s.cycle = n.cycle
	s.nextID = n.nextID
	copy(s.routerDead, n.routerDead)
	copy(s.midFlight, n.midFlight)
	copy(s.linkDrop, n.linkDrop)
	copy(s.seqNext, n.seqNext)
	s.stats.CopyFrom(n.stats)
	for id := range n.routers {
		s.routers[id] = n.routers[id].SaveStateInto(s.routers[id], cl.flitFn)
		saveNI(&s.nis[id], n.nis[id], cl)

		fl := s.inFlits[id][:0]
		for _, w := range n.inFlits[id] {
			fl = append(fl, router.InFlit{In: w.In, VC: w.VC, F: cl.flit(w.F)})
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

// newSnapshot allocates the storage of a snapshot of the given shape.
// It sets no values: SnapshotInto writes every field of a fresh
// snapshot and of a recycled one through the same assignments.
func newSnapshot(sh snapShape) *Snapshot {
	s := &Snapshot{
		shape: sh,

		routers: make([]*core.RouterState, sh.nodes),
		nis:     make([]niState, sh.nodes),

		inFlits:     make([][]router.InFlit, sh.nodes),
		inCredits:   make([][]core.CreditIn, sh.nodes),
		inNICredits: make([][]router.Credit, sh.nodes),

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
		s.nis[id] = niState{
			queues:  queues[id*sh.classes : (id+1)*sh.classes],
			active:  active[id*sh.vcs : (id+1)*sh.vcs],
			vcBusy:  busy[id],
			credits: credits[id],
		}
	}
	return s
}

// makeGrid returns rows fixed-length rows of per elements carved from
// one backing array.
func makeGrid[T any](rows, per int) [][]T {
	g := makeBuckets[T](rows, per)
	for i := range g {
		g[i] = g[i][:per]
	}
	return g
}

// copyWindows returns an independent copy of src to replace dst. Without
// retransmission both are always empty and nothing is allocated.
func copyWindows(dst, src map[int]*seqWindow) map[int]*seqWindow {
	if len(src) == 0 {
		clear(dst)
		return dst
	}
	out := make(map[int]*seqWindow, len(src))
	//nocvet:ignore determinism map-to-map copy; result order-independent
	for from, w := range src {
		seen := make(map[uint64]bool, len(w.seen))
		//nocvet:ignore determinism map-to-map copy; result order-independent
		for k, v := range w.seen {
			seen[k] = v
		}
		out[from] = &seqWindow{floor: w.floor, seen: seen}
	}
	return out
}

func saveNI(s *niState, ni *NI, cl *cloner) {
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

// Restore rewinds the network to a state captured by Snapshot. The
// snapshot is re-cloned, not consumed: the same snapshot can be
// restored again. Restore must be called at a step boundary, on a
// network of the snapshot's shape and configuration (it panics on a
// shape mismatch). The network's own storage is overwritten in place —
// in particular the collector Stats returns stays the same object and
// reads the restored values. Fault-aware routing tables are rebuilt
// from the restored link/router fault sets.
func (n *Network) Restore(s *Snapshot) {
	if s.shape != n.shape() {
		panic(fmt.Sprintf("noc: Restore: snapshot of a %+v network restored into a %+v one", s.shape, n.shape()))
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

	cl := n.cl.reset()
	n.cycle = s.cycle
	n.nextID = s.nextID
	copy(n.routerDead, s.routerDead)
	copy(n.midFlight, s.midFlight)
	copy(n.linkDrop, s.linkDrop)
	copy(n.seqNext, s.seqNext)
	n.stats.CopyFrom(s.stats)

	for id := range n.routers {
		n.routers[id].RestoreState(s.routers[id], cl.flitFn)
		restoreNI(n.nis[id], &s.nis[id], cl)

		n.inFlits[id] = n.inFlits[id][:0]
		for _, w := range s.inFlits[id] {
			n.inFlits[id] = append(n.inFlits[id],
				router.InFlit{In: w.In, VC: w.VC, F: cl.flit(w.F)})
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

// restoreNI overwrites the NI's queues and in-progress packets in
// place. The live slices are re-sliced forward by tick (and active
// entries replaced by flit.Segment's), so the backing arrays restore
// refills are kept whole in queueBuf/activeBuf and the live slices
// re-pointed at them.
func restoreNI(ni *NI, s *niState, cl *cloner) {
	ni.activeVCs = s.activeVCs
	ni.sendScan = s.sendScan
	copy(ni.vcBusy, s.vcBusy)
	copy(ni.credits, s.credits)
	if ni.queueBuf == nil {
		ni.queueBuf = make([][]*flit.Packet, len(ni.queues))
		ni.activeBuf = make([][]*flit.Flit, len(ni.active))
	}
	for cls := range ni.queues {
		q := ni.queueBuf[cls][:0]
		for _, p := range s.queues[cls] {
			q = append(q, cl.pkt(p))
		}
		ni.queueBuf[cls] = q
		ni.queues[cls] = q
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

// AppendCanonical appends a canonical encoding of the network's
// behaviour-relevant state to b and returns the extended slice. Two
// network states with equal canonical encodings (under the same
// configuration) are bisimilar: every future choice sequence produces
// the same architectural behaviour. Excluded, because they never feed
// back into behaviour: the cycle counter (all timers are encoded
// relative to it), packet IDs and timestamps, the statistics collector,
// and link-utilization counters.
func (n *Network) AppendCanonical(b []byte) []byte {
	for id, r := range n.routers {
		b = r.AppendCanonical(b)
		b = n.appendCanonicalNI(b, id)

		b = appI(b, len(n.inFlits[id]))
		for _, w := range n.inFlits[id] {
			b = appI(b, int(w.In))
			b = appI(b, w.VC)
			b = core.AppendCanonicalFlit(b, w.F)
		}
		b = appI(b, len(n.inCredits[id]))
		for _, cr := range n.inCredits[id] {
			b = appI(b, int(cr.Out))
			b = appI(b, cr.VC)
			b = appB(b, cr.VCFree)
		}
		b = appI(b, len(n.inNICredits[id]))
		for _, cr := range n.inNICredits[id] {
			b = appI(b, int(cr.In))
			b = appI(b, cr.VC)
			b = appB(b, cr.VCFree)
		}

		b = appendBools(b, n.linkDead[id])
		b = appB(b, n.routerDead[id])
		for link := id * n.ports; link < (id+1)*n.ports; link++ {
			b = appU(appU(b, n.midFlight[link]), n.linkDrop[link])
		}

		b = appU(b, n.seqNext[id])
		b = appI(b, len(n.retx[id]))
		for _, e := range n.retx[id] {
			b = appU(b, e.seq)
			b = appI(b, e.dst)
			b = append(b, byte(e.class))
			b = appI(b, e.size)
			// Timers relative to the current cycle, so states reached at
			// different absolute cycles can still coincide.
			b = appU(b, uint64(e.deadline-n.cycle))
			b = appU(b, uint64(e.interval))
			b = appI(b, e.retries)
		}
		b = n.appendCanonicalWindows(b, n.delivered[id])
	}
	return b
}

func (n *Network) appendCanonicalNI(b []byte, id int) []byte {
	ni := n.nis[id]
	for _, q := range ni.queues {
		b = appI(b, len(q))
		for _, p := range q {
			b = appendCanonicalPacket(b, p)
		}
	}
	for _, fl := range ni.active {
		b = appI(b, len(fl))
		for _, f := range fl {
			b = core.AppendCanonicalFlit(b, f)
		}
	}
	b = appendBools(b, ni.vcBusy)
	for _, c := range ni.credits {
		b = appI(b, c)
	}
	b = appI(b, ni.sendScan)
	return b
}

func (n *Network) appendCanonicalWindows(b []byte, m map[int]*seqWindow) []byte {
	b = appI(b, len(m))
	srcs := n.canonSrcs[:0]
	//nocvet:ignore determinism collected keys are sorted before use
	for src := range m {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	n.canonSrcs = srcs
	for _, src := range srcs {
		w := m[src]
		b = appI(b, src)
		b = appU(b, w.floor)
		seen := n.canonSeen[:0]
		//nocvet:ignore determinism collected keys are sorted before use
		for s := range w.seen {
			seen = append(seen, s)
		}
		slices.Sort(seen)
		n.canonSeen = seen
		b = appI(b, len(seen))
		for _, s := range seen {
			b = appU(b, s)
		}
	}
	return b
}

func appendCanonicalPacket(b []byte, p *flit.Packet) []byte {
	b = appI(b, p.Src)
	b = appI(b, p.Dst)
	b = append(b, byte(p.Class))
	b = appI(b, p.Size)
	b = appU(b, p.Seq)
	return b
}

func appendBools(b []byte, vs []bool) []byte {
	for _, v := range vs {
		b = appB(b, v)
	}
	return b
}

// StateHash returns a 64-bit FNV-1a hash of the canonical state, for
// display and logging. The model checker keys its visited set on the
// full canonical bytes, not this hash, so hash collisions cannot mask
// distinct states.
func (n *Network) StateHash() uint64 {
	h := fnv.New64a()
	h.Write(n.AppendCanonical(nil))
	return h.Sum64()
}

// DropPendingCredit removes one credit from router id's inbound credit
// latch and reports whether there was one to remove. It exists to
// sabotage the simulator on purpose: losing a credit permanently
// underfunds one VC's flow control, which eventually wedges the
// pipeline — exactly the class of bug the model checker's deadlock
// detector must catch. Used by `noctool check -sabotage` and the
// modelcheck counterexample tests; never called by simulation code.
func (n *Network) DropPendingCredit(id int) bool {
	lat := n.inCredits[id]
	if len(lat) == 0 {
		return false
	}
	n.inCredits[id] = lat[:len(lat)-1]
	return true
}
