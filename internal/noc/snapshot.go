package noc

import (
	"fmt"
	"hash/fnv"
	"slices"
	"unsafe"

	"gonoc/internal/canon"
	"gonoc/internal/core"
	"gonoc/internal/flit"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

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
// Both directions are on the model checker's per-transition path, and a
// frontier of held snapshots is what bounds how far a proof reaches, so
// a snapshot is a handful of flat buffers, not an object graph:
// SnapshotInto refills the buffers of a snapshot the caller is finished
// with and allocates nothing, Restore walks them front to back into the
// network's own slices, maps and collector and allocates the live flits
// and packets alone, one block of each (TestModelCheckTransitionAllocs).

// Snapshot is a deep, self-contained copy of a Network's mutable state.
// It holds no aliases into the live network: packets are cloned, once
// each, into pkts, and every saved flit names its packet by index there
// (the flits of one packet restore to one *Packet again), so a snapshot
// can be restored any number of times.
type Snapshot struct {
	// shape is the configuration of the network the snapshot was taken
	// from: the only networks Restore accepts it on, and the only ones
	// SnapshotInto reuses its storage for.
	shape snapShape

	cycle  sim.Cycle
	nextID uint64

	// routers holds the router states by value; the flits in them point
	// into pkts.
	routers []core.RouterState

	// net is everything narrow outside the routers, one sequential
	// record written node by node and read back in the same order:
	//
	//	the pkts index of each flit the router state holds, in its order
	//	routerDead, then the NI: activeVCs, sendScan, vcBusy and credits
	//	  per VC, per class the queue length and the queued packets'
	//	  pkts indices, per VC the in-progress packet's remaining flits
	//	the inbound latches: flits (port, VC, flit), credits and NI
	//	  credits (port, VC, VCFree), each behind its length
	//	the length of the node's retransmission buffer (entries in retx)
	//
	// with a flit outside a router as kind, seq, pkts index. flits
	// counts the flits in net and in routers together.
	net   []int32
	flits int

	// words holds the wide per-node values: midFlight and linkDrop per
	// link, then seqNext and the linkDead mask per node.
	words []uint64

	pkts []flit.Packet
	retx []retxEntry
	// delivered is nil while no node has a duplicate-suppression window
	// (always, without retransmission).
	delivered []map[int]*seqWindow

	stats stats.Collector
}

// snapShape is what a Snapshot's layout and its router states' derive
// from, plus the topology family: a snapshot restores only into a
// network that agrees on all of it.
type snapShape struct {
	nodes, ports, vcs, classes, depth int
	protected                         bool
	topo                              string
}

// Bytes returns the heap bytes the snapshot retains: the struct and the
// capacity of every buffer it owns. The duplicate-suppression windows of
// a retransmission-armed network are maps and are not counted.
func (s *Snapshot) Bytes() int {
	b := int(unsafe.Sizeof(*s)) + cap(s.routers)*int(unsafe.Sizeof(core.RouterState{})) +
		cap(s.net)*4 + cap(s.words)*8 + cap(s.pkts)*int(unsafe.Sizeof(flit.Packet{})) +
		cap(s.retx)*int(unsafe.Sizeof(retxEntry{})) + cap(s.delivered)*8
	for i := range s.routers {
		b += s.routers[i].Bytes()
	}
	return b
}

// snapIO is the scratch Snapshot and Restore share: the cursor state of
// the one in progress and the two flit functions handed to core, bound
// once. A network allocates it on its first Snapshot or Restore.
type snapIO struct {
	// shape is the network's, s the snapshot being written or read.
	shape snapShape
	s     *Snapshot

	// Saving: pktIdx maps each live packet to its clone's index in
	// s.pkts, so the flits of a packet split between an NI and router
	// buffers still share their packet after a round trip; last caches
	// the latest lookup (a packet's flits mostly sit together). tmp is
	// the flit saveFlit returns. moved is set when s.pkts had to be
	// reallocated, which strands the pointers already handed to router
	// states.
	pktIdx   map[*flit.Packet]int32
	last     *flit.Packet
	lastIdx  int32
	tmp      flit.Flit
	moved    bool
	saveFlit func(*flit.Flit) *flit.Flit

	// Restoring: pkts and flits are the live clones, one block each, at
	// is the read position in s.net and used counts the flits handed out.
	pkts        []flit.Packet
	flits       []flit.Flit
	at, used    int
	restoreFlit func(*flit.Flit) *flit.Flit
}

func (n *Network) snapIO() *snapIO {
	if n.io == nil {
		rc := n.cfg.Router
		n.io = &snapIO{pktIdx: map[*flit.Packet]int32{}, shape: snapShape{
			nodes: len(n.routers), ports: n.ports, vcs: rc.VCs, classes: rc.Classes,
			depth: rc.Depth, protected: rc.FaultTolerant, topo: n.topo.Kind()}}
		n.io.saveFlit, n.io.restoreFlit = n.io.savedFlit, n.io.liveFlit
	}
	return n.io
}

// pkt returns the index in s.pkts of p's clone, cloning it on first
// sight.
func (io *snapIO) pkt(p *flit.Packet) int32 {
	if p == io.last {
		return io.lastIdx
	}
	idx, ok := io.pktIdx[p]
	if !ok {
		s := io.s
		io.moved = io.moved || len(s.pkts) == cap(s.pkts)
		idx = int32(len(s.pkts))
		s.pkts = append(s.pkts, *p)
		io.pktIdx[p] = idx
	}
	io.last, io.lastIdx = p, idx
	return idx
}

// putFlit appends a flit outside a router to the record.
func (io *snapIO) putFlit(f *flit.Flit) {
	io.s.net = append(io.s.net, int32(f.Kind), int32(f.Seq), io.pkt(f.Pkt))
	io.s.flits++
}

// savedFlit is core.SaveStateInto's cloneFlit: the router state keeps
// the returned flit by value, and the record keeps its packet's index
// for Restore.
func (io *snapIO) savedFlit(f *flit.Flit) *flit.Flit {
	idx := io.pkt(f.Pkt)
	io.s.net = append(io.s.net, idx)
	io.s.flits++
	io.tmp = flit.Flit{Pkt: &io.s.pkts[idx], Kind: f.Kind, Seq: f.Seq}
	return &io.tmp
}

// get reads the next record value.
func (io *snapIO) get() int {
	v := io.s.net[io.at]
	io.at++
	return int(v)
}

// live returns the next live flit, of the given kind and position in
// live packet idx.
func (io *snapIO) live(kind flit.Kind, seq, idx int) *flit.Flit {
	f := &io.flits[io.used]
	io.used++
	*f = flit.Flit{Pkt: &io.pkts[idx], Kind: kind, Seq: seq}
	return f
}

// getFlit reads a flit putFlit wrote.
func (io *snapIO) getFlit() *flit.Flit {
	return io.live(flit.Kind(io.get()), io.get(), io.get())
}

// getCredit reads a latched credit: port, VC, VC-free flag.
func (io *snapIO) getCredit() credit {
	return credit{port: uint8(io.get()), vc: uint8(io.get()), free: io.get() != 0}
}

// liveFlit is core.RestoreState's cloneFlit: the saved flits arrive in
// the order savedFlit cloned them, which is the order of their packet
// indices in the record.
func (io *snapIO) liveFlit(f *flit.Flit) *flit.Flit {
	idx := io.get()
	if f.Pkt != &io.s.pkts[idx] {
		panic("noc: Restore: router state and network record disagree on the order of the saved flits")
	}
	return io.live(f.Kind, f.Seq, idx)
}

// Snapshot captures the network's complete mutable state. The receiver
// is unchanged; the returned snapshot shares nothing with it.
func (n *Network) Snapshot() *Snapshot { return n.SnapshotInto(nil) }

// SnapshotInto is Snapshot writing into old's storage: every field of
// old is overwritten and old is returned, so a caller that takes many
// snapshots and is finished with some — the model checker, once a
// frontier state is fully expanded — allocates nothing for the next
// one. The caller must own old outright: whatever it held is gone.
// Restore never consumes a snapshot, so handing storage back is always
// the caller's decision. A nil old, or one taken from a network of
// another shape (node, port, VC or class count, buffer depth, router
// protection, topology family), is left untouched and a fresh snapshot
// is returned instead.
func (n *Network) SnapshotInto(old *Snapshot) *Snapshot {
	io := n.snapIO()
	s := old
	if sh := io.shape; s == nil || s.shape != sh {
		// A fresh snapshot's buffers are sized from the load, so filling
		// them allocates each once; the packet count is exact unless a
		// test harness put packets in behind the collector's back.
		inFlight := int(n.stats.InFlight())
		s = &Snapshot{
			shape:   sh,
			routers: make([]core.RouterState, sh.nodes),
			net:     make([]int32, 0, sh.nodes*(7+3*sh.vcs+sh.classes)+8*inFlight),
			words:   make([]uint64, sh.nodes*(2*sh.ports+2)),
			pkts:    make([]flit.Packet, 0, inFlight),
		}
	}
	// The router states point into pkts, so a pass that had to grow it
	// is repeated: the second finds the capacity the first one built.
	io.s = s
	for {
		io.moved = false
		n.fill(s, io)
		if !io.moved {
			break
		}
	}
	// The memo must not keep live packets reachable between snapshots.
	io.s, io.last = nil, nil
	clear(io.pktIdx)
	return s
}

// fill writes every field of s from the network. It empties the packet
// memo first: a pass that was repeated, or one a panic cut short, left
// entries behind.
func (n *Network) fill(s *Snapshot, io *snapIO) {
	clear(io.pktIdx)
	io.last = nil
	s.net, s.pkts, s.retx, s.flits = s.net[:0], s.pkts[:0], s.retx[:0], 0
	s.cycle = n.cycle
	s.nextID = n.nextID
	s.stats.CopyFrom(n.stats)

	links := len(n.midFlight)
	copy(s.words, n.midFlight)
	copy(s.words[links:], n.linkDrop)
	copy(s.words[2*links:], n.seqNext)
	deadMasks := s.words[2*links+len(n.seqNext):]
	for id, r := range n.routers {
		// Empty or of this shape, so filled in place: snapShape covers
		// what core checks.
		r.SaveStateInto(&s.routers[id], io.saveFlit)
		s.net = append(s.net, int32(bit(n.routerDead[id])))
		saveNI(s, n.nis[id], io)

		s.net = append(s.net, int32(len(n.inFlits[id])))
		for _, w := range n.inFlits[id] {
			s.net = append(s.net, int32(w.in), int32(w.vc))
			io.putFlit(w.f)
		}
		s.net = append(s.net, int32(len(n.inCredits[id])))
		for _, c := range n.inCredits[id] {
			s.net = append(s.net, int32(c.port), int32(c.vc), int32(bit(c.free)))
		}
		s.net = append(s.net, int32(len(n.inNICredits[id])))
		for _, c := range n.inNICredits[id] {
			s.net = append(s.net, int32(c.port), int32(c.vc), int32(bit(c.free)))
		}

		deadMasks[id] = deadMask(n.linkDead[id])
		s.net = append(s.net, int32(len(n.retx[id])))
		s.retx = append(s.retx, n.retx[id]...)
		if s.delivered == nil && len(n.delivered[id]) > 0 {
			s.delivered = make([]map[int]*seqWindow, len(n.routers))
		}
		if s.delivered != nil {
			s.delivered[id] = copyWindows(s.delivered[id], n.delivered[id])
		}
	}
}

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// deadMask packs one node's linkDead row into a word, bit p for port p
// (router.Config.Validate caps Ports at 64).
func deadMask(dead []bool) (m uint64) {
	for p, d := range dead {
		if d {
			m |= 1 << uint(p)
		}
	}
	return m
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

func saveNI(s *Snapshot, ni *NI, io *snapIO) {
	s.net = append(s.net, int32(ni.activeVCs), int32(ni.sendScan))
	for v, busy := range ni.vcBusy {
		s.net = append(s.net, int32(bit(busy)), int32(ni.credits[v]))
	}
	for _, q := range ni.queues {
		s.net = append(s.net, int32(len(q)))
		for _, p := range q {
			s.net = append(s.net, io.pkt(p))
		}
	}
	for _, fl := range ni.active {
		s.net = append(s.net, int32(len(fl)))
		for _, f := range fl {
			io.putFlit(f)
		}
	}
}

// Restore rewinds the network to a state captured by Snapshot. The
// snapshot is re-cloned, not consumed: the same snapshot can be
// restored again. Restore only reads the snapshot, so one snapshot may
// be restored into several networks at once, from as many goroutines.
// Restore must be called at a step boundary, on a
// network of the snapshot's shape; on any other it panics, naming both,
// before it has changed anything. The network's own storage is
// overwritten in place — in particular the collector Stats returns
// stays the same object and reads the restored values. The live flits
// and packets are allocated anew, one block of each: a delivered
// *flit.Packet is handed to the traffic generator (OnEject), which may
// keep it, so Restore must not recycle them. Fault-aware routing tables
// are rebuilt from the restored link/router fault sets.
func (n *Network) Restore(s *Snapshot) {
	io := n.snapIO()
	if s.shape != io.shape {
		panic(fmt.Sprintf("noc: Restore: snapshot of a %+v network restored into a %+v one", s.shape, io.shape))
	}
	io.s = s
	io.pkts = slices.Clone(s.pkts)
	io.flits = make([]flit.Flit, s.flits)
	io.at, io.used = 0, 0

	n.cycle = s.cycle
	n.nextID = s.nextID
	n.stats.CopyFrom(&s.stats)
	links := len(n.midFlight)
	copy(n.midFlight, s.words)
	copy(n.linkDrop, s.words[links:])
	copy(n.seqNext, s.words[2*links:])
	deadMasks := s.words[2*links+len(n.seqNext):]

	// The fault-aware routing tables are a pure function of the link and
	// router fault sets, so the rebuild at the end is only needed when
	// the snapshot's fault sets differ from the network's current ones.
	// The model checker restores thousands of same-fault-set snapshots
	// per scenario; skipping the rebuild there is a large win.
	faultsChanged := false
	retxAt := 0
	for id, r := range n.routers {
		r.RestoreState(&s.routers[id], io.restoreFlit)
		if dead := io.get() != 0; dead != n.routerDead[id] {
			n.routerDead[id], faultsChanged = dead, true
		}
		restoreNI(n.nis[id], io)

		// The operands below are read in the lexical order of each
		// composite literal, which is the order fill wrote them in.
		n.inFlits[id] = n.inFlits[id][:0]
		for k := io.get(); k > 0; k-- {
			n.inFlits[id] = append(n.inFlits[id],
				inFlit{in: uint8(io.get()), vc: uint8(io.get()), f: io.getFlit()})
		}
		n.inCredits[id] = n.inCredits[id][:0]
		for k := io.get(); k > 0; k-- {
			n.inCredits[id] = append(n.inCredits[id], io.getCredit())
		}
		n.inNICredits[id] = n.inNICredits[id][:0]
		for k := io.get(); k > 0; k-- {
			n.inNICredits[id] = append(n.inNICredits[id], io.getCredit())
		}

		if m := deadMasks[id]; m != deadMask(n.linkDead[id]) {
			faultsChanged = true
			for p := range n.linkDead[id] {
				n.linkDead[id][p] = m>>uint(p)&1 != 0
			}
		}
		k := io.get()
		n.retx[id] = append(n.retx[id][:0], s.retx[retxAt:retxAt+k]...)
		retxAt += k
		var windows map[int]*seqWindow
		if s.delivered != nil {
			windows = s.delivered[id]
		}
		n.delivered[id] = copyWindows(n.delivered[id], windows)

		// Staged compute outputs alias router buffers that RestoreState
		// just reset; drop the stale views.
		n.stagedFlits[id] = nil
		n.stagedCredits[id] = nil
	}
	if io.at != len(s.net) || io.used != s.flits || retxAt != len(s.retx) {
		panic(fmt.Sprintf("noc: Restore: read %d of %d record values, %d of %d flits and %d of %d retransmission entries: save and restore disagree on the record layout",
			io.at, len(s.net), io.used, s.flits, retxAt, len(s.retx)))
	}
	io.s, io.pkts, io.flits = nil, nil, nil
	if faultsChanged {
		// Rebuild (or drop) the fault-aware tables from the restored
		// fault sets. rebuildRoutes reinstalls the topology's baseline
		// RouteFn (nil for a mesh, the dateline torusRoute for a
		// torus) when the restored state is fault free.
		n.rebuildRoutes()
	}
}

// restoreNI overwrites the NI's queues and in-progress packets in
// place. The live slices are re-sliced forward by tick (and active
// entries replaced by flit.Segment's), so the backing arrays restore
// refills are kept whole in queueBuf/activeBuf and the live slices
// re-pointed at them.
func restoreNI(ni *NI, io *snapIO) {
	ni.activeVCs = io.get()
	ni.sendScan = io.get()
	for v := range ni.vcBusy {
		ni.vcBusy[v] = io.get() != 0
		ni.credits[v] = io.get()
	}
	if ni.queueBuf == nil {
		ni.queueBuf = make([][]*flit.Packet, len(ni.queues))
		ni.activeBuf = make([][]*flit.Flit, len(ni.active))
	}
	ni.queued = 0
	for cls := range ni.queues {
		q := ni.queueBuf[cls][:0]
		for k := io.get(); k > 0; k-- {
			q = append(q, &io.pkts[io.get()])
		}
		ni.queueBuf[cls] = q
		ni.queues[cls] = q
		ni.queued += len(q)
	}
	for v := range ni.active {
		k := io.get()
		if k == 0 {
			ni.active[v] = nil
			continue
		}
		fs := ni.activeBuf[v][:0]
		for ; k > 0; k-- {
			fs = append(fs, io.getFlit())
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
// and link-utilization counters. It is the concatenation of
// AppendCanonicalNode over every node in id order.
func (n *Network) AppendCanonical(b []byte) []byte {
	for id := range n.routers {
		b = n.AppendCanonicalNode(b, id)
	}
	return b
}

// AppendCanonicalNode appends node id's section of the canonical
// encoding: its router, NI, inbound latches, link and fault state,
// retransmission entries and delivery windows. Every list in a section
// is length-prefixed, so a section is self-delimiting under a fixed
// configuration: two networks have equal AppendCanonical encodings
// exactly when every pair of same-node sections is equal. The model
// checker relies on that to key its visited set on one interned id
// per section.
func (n *Network) AppendCanonicalNode(b []byte, id int) []byte {
	b = n.routers[id].AppendCanonical(b)
	b = n.appendCanonicalNI(b, id)

	b = canon.Int(b, len(n.inFlits[id]))
	for _, w := range n.inFlits[id] {
		b = canon.Int(b, int(w.in))
		b = canon.Int(b, int(w.vc))
		b = core.AppendCanonicalFlit(b, w.f)
	}
	b = appendCanonicalCredits(b, n.inCredits[id])
	b = appendCanonicalCredits(b, n.inNICredits[id])

	b = appendBools(b, n.linkDead[id])
	b = canon.Bool(b, n.routerDead[id])
	for link := id * n.ports; link < (id+1)*n.ports; link++ {
		b = canon.Uint(canon.Uint(b, n.midFlight[link]), n.linkDrop[link])
	}

	b = canon.Uint(b, n.seqNext[id])
	b = canon.Int(b, len(n.retx[id]))
	for _, e := range n.retx[id] {
		b = canon.Uint(b, e.seq)
		b = canon.Int(b, e.dst)
		b = append(b, byte(e.class))
		b = canon.Int(b, e.size)
		// Timers relative to the current cycle, so states reached at
		// different absolute cycles can still coincide.
		b = canon.Uint(b, uint64(e.deadline-n.cycle))
		b = canon.Uint(b, uint64(e.interval))
		b = canon.Int(b, e.retries)
	}
	b = n.appendCanonicalWindows(b, n.delivered[id])
	return b
}

func (n *Network) appendCanonicalNI(b []byte, id int) []byte {
	ni := n.nis[id]
	for _, q := range ni.queues {
		b = canon.Int(b, len(q))
		for _, p := range q {
			b = canon.Packet(b, p)
		}
	}
	for _, fl := range ni.active {
		b = canon.Int(b, len(fl))
		for _, f := range fl {
			b = core.AppendCanonicalFlit(b, f)
		}
	}
	b = appendBools(b, ni.vcBusy)
	for _, c := range ni.credits {
		b = canon.Int(b, c)
	}
	b = canon.Int(b, ni.sendScan)
	return b
}

func (n *Network) appendCanonicalWindows(b []byte, m map[int]*seqWindow) []byte {
	b = canon.Int(b, len(m))
	srcs := n.canonSrcs[:0]
	//nocvet:ignore determinism collected keys are sorted before use
	for src := range m {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	n.canonSrcs = srcs
	for _, src := range srcs {
		w := m[src]
		b = canon.Int(b, src)
		b = canon.Uint(b, w.floor)
		seen := n.canonSeen[:0]
		//nocvet:ignore determinism collected keys are sorted before use
		for s := range w.seen {
			seen = append(seen, s)
		}
		slices.Sort(seen)
		n.canonSeen = seen
		b = canon.Int(b, len(seen))
		for _, s := range seen {
			b = canon.Uint(b, s)
		}
	}
	return b
}

// appendCanonicalCredits appends a credit latch: its length, then port,
// VC and VC-free flag per credit, in latch order.
func appendCanonicalCredits(b []byte, cs []credit) []byte {
	b = canon.Int(b, len(cs))
	for _, cr := range cs {
		b = canon.Int(b, int(cr.port))
		b = canon.Int(b, int(cr.vc))
		b = canon.Bool(b, cr.free)
	}
	return b
}

func appendBools(b []byte, vs []bool) []byte {
	for _, v := range vs {
		b = canon.Bool(b, v)
	}
	return b
}

// StateHash returns a 64-bit FNV-1a hash of the canonical state, for
// display and logging. The model checker keys its visited set on the
// canonical sections themselves (AppendCanonicalNode, interned), not on
// this hash, so hash collisions cannot mask distinct states.
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
