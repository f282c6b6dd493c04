package noc

import (
	"fmt"
	"hash/fnv"
	"slices"
	"unsafe"

	"gonoc/internal/canon"
	"gonoc/internal/core"
	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// Deep snapshot/restore of a Network at a step boundary, plus a
// canonical byte encoding of the behaviour-relevant state. These are
// the enablers for the model-checking tier (internal/modelcheck), which
// snapshots a state, explores one successor, and rolls back — and the
// per-network half of the checkpoint/restore groundwork the ROADMAP's
// campaign-server item needs.
//
// Snapshot and Restore, and SaveNode and RestoreNode, must be called
// between Steps (never from a hook). At that boundary the routers'
// output latches are empty — the commit phase took them — and all
// in-flight traffic lives in the routers' input latches
// (core.Router.Inputs) and the NI credit latches (inNICredits), which
// the snapshot captures with each node.
//
// A snapshot is a handful of flat buffers, not an object graph:
// SnapshotInto refills the buffers of a snapshot the caller is finished
// with and allocates nothing, Restore walks them front to back into the
// network's own slices, maps and collector and allocates the live flits
// and packets alone, one block of each (TestModelCheckTransitionAllocs).
// A NodeRecord is the same per-node record for one node alone (SaveNode,
// RestoreNode): the model checker keeps one per distinct node section
// and rebuilds a state node by node, restoring only the nodes whose
// section differs from what the network holds.

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

	// record holds the rest of every node's state, node after node.
	record

	stats stats.Collector
}

// record is what a saved node holds beyond its router state: saveNode
// appends it and restoreNode reads it back in the same order, node after
// node. A Snapshot holds every node's, a NodeRecord one.
type record struct {
	// net is everything narrow, one sequential record per node:
	//
	//	the pkts index of each flit the router state holds, in its order
	//	routerDead, then the NI: activeVCs, sendScan, vcBusy and credits
	//	  per VC, per class the queue length and the queued packets'
	//	  pkts indices, per VC the in-progress packet's remaining flits
	//	the inbound latches: the router's input latch, flits (port, VC,
	//	  flit) and credits (port, VC, VCFree), then the NI credits
	//	  (port, VC, VCFree), each behind its length
	//	the number of the node's retransmission entries (in retx)
	//
	// with a flit outside a router as kind, seq, pkts index. flits
	// counts the flits in net and in the router states together.
	net   []int32
	flits int

	// words holds the wide per-node values: midFlight and linkDrop per
	// link of the node, then its seqNext and linkDead mask.
	words []uint64

	pkts []flit.Packet
	retx []retxEntry
}

// reset empties r for a save pass.
func (r *record) reset() {
	r.net, r.words, r.pkts, r.retx = r.net[:0], r.words[:0], r.pkts[:0], r.retx[:0]
	r.flits = 0
}

// bytes returns the heap bytes r's buffers retain.
func (r *record) bytes() int {
	return cap(r.net)*4 + cap(r.words)*8 + cap(r.pkts)*int(unsafe.Sizeof(flit.Packet{})) +
		cap(r.retx)*int(unsafe.Sizeof(retxEntry{}))
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
// capacity of every buffer it owns.
func (s *Snapshot) Bytes() int {
	b := int(unsafe.Sizeof(*s)) + cap(s.routers)*int(unsafe.Sizeof(core.RouterState{})) + s.record.bytes()
	for i := range s.routers {
		b += s.routers[i].Bytes()
	}
	return b
}

// snapIO is the scratch the savers and restorers share: the cursor state
// of the one in progress and the two flit functions handed to core,
// bound once. A network allocates it on its first save or restore.
type snapIO struct {
	// shape is the network's, s the record being written or read.
	shape snapShape
	s     *record

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

	// Restoring: pkts and flits are the live clones, one block each.
	// at, wordAt and retxAt are the read positions in s.net, s.words and
	// s.retx, and used counts the flits handed out. shift is how far the
	// network's clock is ahead of the one the record was saved at.
	pkts           []flit.Packet
	flits          []flit.Flit
	at, used       int
	wordAt, retxAt int
	shift          sim.Cycle
	restoreFlit    func(*flit.Flit) *flit.Flit
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

// startSave empties s and the packet memo for a save pass into s. Every
// pass starts here: a pass that had to grow s.pkts is repeated (moved),
// and one a panic cut short left entries in the memo.
func (io *snapIO) startSave(s *record) {
	io.s = s
	s.reset()
	clear(io.pktIdx)
	io.last, io.moved = nil, false
}

// endSave drops the save's references: the memo must not keep live
// packets reachable between saves.
func (io *snapIO) endSave() {
	io.s, io.last = nil, nil
	clear(io.pktIdx)
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
// for the restore.
func (io *snapIO) savedFlit(f *flit.Flit) *flit.Flit {
	idx := io.pkt(f.Pkt)
	io.s.net = append(io.s.net, idx)
	io.s.flits++
	io.tmp = flit.Flit{Pkt: &io.s.pkts[idx], Kind: f.Kind, Seq: f.Seq}
	return &io.tmp
}

// startRestore starts reading s into a network whose clock is shift
// cycles ahead of the one s was saved at: it clones the saved packets,
// their timestamps moved by shift, and allocates the live flits, one
// block of each. EjectedAt is stamped when a packet leaves the network,
// so no saved packet has one to move.
func (io *snapIO) startRestore(s *record, shift sim.Cycle) {
	io.s, io.shift = s, shift
	io.pkts = slices.Clone(s.pkts)
	if shift != 0 {
		for i := range io.pkts {
			io.pkts[i].CreatedAt += shift
			io.pkts[i].InjectedAt += shift
		}
	}
	io.flits = make([]flit.Flit, s.flits)
	io.at, io.used, io.wordAt, io.retxAt = 0, 0, 0, 0
}

// endRestore checks that the restore read s to its end, and drops the
// references.
func (io *snapIO) endRestore(caller string) {
	s := io.s
	if io.at != len(s.net) || io.used != s.flits || io.wordAt != len(s.words) || io.retxAt != len(s.retx) {
		panic(fmt.Sprintf("noc: %s: read %d of %d record values, %d of %d flits, %d of %d words and %d of %d retransmission entries: save and restore disagree on the record layout",
			caller, io.at, len(s.net), io.used, s.flits, io.wordAt, len(s.words), io.retxAt, len(s.retx)))
	}
	io.s, io.pkts, io.flits = nil, nil, nil
}

// get reads the next record value.
func (io *snapIO) get() int {
	v := io.s.net[io.at]
	io.at++
	return int(v)
}

// getWords reads the next k wide values.
func (io *snapIO) getWords(k int) []uint64 {
	w := io.s.words[io.wordAt : io.wordAt+k]
	io.wordAt += k
	return w
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

// liveFlit is core.RestoreState's cloneFlit: the saved flits arrive in
// the order savedFlit cloned them, which is the order of their packet
// indices in the record.
func (io *snapIO) liveFlit(f *flit.Flit) *flit.Flit {
	idx := io.get()
	if f.Pkt != &io.s.pkts[idx] {
		panic("noc: restore: router state and network record disagree on the order of the saved flits")
	}
	return io.live(f.Kind, f.Seq, idx)
}

// Snapshot captures the network's complete mutable state. The receiver
// is unchanged; the returned snapshot shares nothing with it.
func (n *Network) Snapshot() *Snapshot { return n.SnapshotInto(nil) }

// SnapshotInto is Snapshot writing into old's storage: every field of
// old is overwritten and old is returned, so a caller that takes many
// snapshots and is finished with some allocates nothing for the next
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
			record: record{
				net:   make([]int32, 0, sh.nodes*(8+3*sh.vcs+sh.classes)+8*inFlight),
				words: make([]uint64, 0, sh.nodes*(2*sh.ports+2)),
				pkts:  make([]flit.Packet, 0, inFlight),
			},
		}
	}
	// The router states point into pkts, so a pass that had to grow it
	// is repeated: the second finds the capacity the first one built.
	for repeat := true; repeat; repeat = io.moved {
		io.startSave(&s.record)
		s.cycle = n.cycle
		s.nextID = n.nextID
		s.stats.CopyFrom(n.stats)
		for id := range n.routers {
			// Empty or of this shape, so filled in place: snapShape
			// covers what core checks.
			n.saveNode(id, &s.routers[id], io)
		}
	}
	io.endSave()
	return s
}

// saveNode appends node id's state to the record being saved and saves
// its router into rs, which is empty or of this network's shape: the
// one per-node save of Snapshot and SaveNode.
func (n *Network) saveNode(id int, rs *core.RouterState, io *snapIO) {
	s := io.s
	n.routers[id].SaveStateInto(rs, io.saveFlit)
	s.net = append(s.net, int32(bit(n.routerDead[id])))
	saveNI(s, n.nis[id], io)

	flits, credits := n.routers[id].Inputs()
	s.net = append(s.net, int32(len(flits)))
	for _, w := range flits {
		s.net = append(s.net, int32(w.In), int32(w.VC))
		io.putFlit(w.F)
	}
	s.net = append(s.net, int32(len(credits)))
	for _, c := range credits {
		s.net = append(s.net, int32(c.Out), int32(c.VC), int32(bit(c.VCFree)))
	}
	s.net = append(s.net, int32(len(n.inNICredits[id])))
	for _, c := range n.inNICredits[id] {
		s.net = append(s.net, int32(c.In), int32(c.VC), int32(bit(c.VCFree)))
	}

	lo, hi := id*n.ports, (id+1)*n.ports
	s.words = append(s.words, n.midFlight[lo:hi]...)
	s.words = append(s.words, n.linkDrop[lo:hi]...)
	s.words = append(s.words, n.seqNext[id], deadMask(n.linkDead[id]))
	s.net = append(s.net, int32(len(n.retx[id])))
	s.retx = append(s.retx, n.retx[id]...)
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

func saveNI(s *record, ni *NI, io *snapIO) {
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
	io.startRestore(&s.record, 0)
	n.cycle = s.cycle
	n.nextID = s.nextID
	n.stats.CopyFrom(&s.stats)
	faultsChanged := false
	for id := range n.routers {
		if n.restoreNode(id, &s.routers[id], io) {
			faultsChanged = true
		}
	}
	io.endRestore("Restore")
	if faultsChanged {
		n.rebuildRoutes()
	}
}

// restoreNode overwrites node id from rs and from the record at io's
// read position, moving its retransmission timers by io.shift: the one
// per-node restore of Restore and RestoreNode. It reports whether the
// node's link or router fault set changed. The fault-aware routing
// tables are a pure function of those sets, so only then does the
// caller rebuild them: a model checker restores thousands of states of
// one fault set per scenario, and skipping the rebuild there is a large
// win. rebuildRoutes reinstalls the topology's baseline RouteFn (nil for
// a mesh, the dateline torusRoute for a torus) once the network is
// fault free again.
func (n *Network) restoreNode(id int, rs *core.RouterState, io *snapIO) (faultsChanged bool) {
	r := n.routers[id]
	r.RestoreState(rs, io.restoreFlit)
	if dead := io.get() != 0; dead != n.routerDead[id] {
		n.routerDead[id], faultsChanged = dead, true
	}
	restoreNI(n.nis[id], io)

	// RestoreState emptied the router's input latch; refill it. The
	// operands below are read in the lexical order of each composite
	// literal, which is the order saveNode wrote them in.
	for k := io.get(); k > 0; k-- {
		r.AcceptFlit(router.InFlit{In: topology.Port(io.get()), VC: io.get(), F: io.getFlit()})
	}
	for k := io.get(); k > 0; k-- {
		r.AcceptCredit(core.CreditIn{Out: topology.Port(io.get()), VC: int8(io.get()), VCFree: io.get() != 0})
	}
	n.inNICredits[id] = n.inNICredits[id][:0]
	for k := io.get(); k > 0; k-- {
		n.inNICredits[id] = append(n.inNICredits[id],
			router.Credit{In: topology.Port(io.get()), VC: int8(io.get()), VCFree: io.get() != 0})
	}

	copy(n.midFlight[id*n.ports:], io.getWords(n.ports))
	copy(n.linkDrop[id*n.ports:], io.getWords(n.ports))
	w := io.getWords(2)
	n.seqNext[id] = w[0]
	if m := w[1]; m != deadMask(n.linkDead[id]) {
		faultsChanged = true
		for p := range n.linkDead[id] {
			n.linkDead[id][p] = m>>uint(p)&1 != 0
		}
	}
	k := io.get()
	n.retx[id] = append(n.retx[id][:0], io.s.retx[io.retxAt:io.retxAt+k]...)
	io.retxAt += k
	for i := range n.retx[id] {
		n.retx[id][i].createdAt += io.shift
		n.retx[id][i].deadline += io.shift
	}
	return faultsChanged
}

// NodeRecord is one node's state at a step boundary, saved on its own by
// SaveNode: what a Snapshot holds of each node, with the node's packets
// cloned for it alone and its timestamps and retransmission timers taken
// relative to the cycle it was saved at. It leaves out what belongs to
// the whole network — the clock, the next packet ID, the statistics.
// RestoreNode installs it into a node of any network of the same shape,
// at any cycle, as often as asked: a restored node's canonical section
// (AppendCanonicalNode) is the saved one. The model checker keeps one
// record per distinct section and restores a state node by node.
type NodeRecord struct {
	shape  snapShape
	cycle  sim.Cycle
	router core.RouterState
	record
}

// Bytes returns the heap bytes the record retains: the struct and the
// capacity of every buffer it owns.
func (r *NodeRecord) Bytes() int {
	return int(unsafe.Sizeof(*r)) + r.router.Bytes() + r.record.bytes()
}

// SaveNode saves node id's state into a fresh NodeRecord. It must be
// called at a step boundary and leaves the network unchanged.
func (n *Network) SaveNode(id int) *NodeRecord {
	io := n.snapIO()
	r := &NodeRecord{shape: io.shape, cycle: n.cycle}
	for repeat := true; repeat; repeat = io.moved {
		io.startSave(&r.record)
		n.saveNode(id, &r.router, io)
	}
	io.endSave()
	return r
}

// RestoreNode overwrites node id with a state SaveNode saved, of this
// node or of any other, leaving every other node, the clock, the next
// packet ID and the statistics as they are. The node's timestamps and
// retransmission timers keep their distance from the clock; packets
// whose flits sit in several nodes are restored as one equal clone per
// node. It must be called at a step boundary, on a network of the
// record's shape; on any other it panics before it has changed
// anything. RestoreNode only reads the record, so one record may be
// restored into several networks at once. The routing tables are
// rebuilt only if the node's fault sets changed.
func (n *Network) RestoreNode(id int, r *NodeRecord) {
	io := n.snapIO()
	if r.shape != io.shape {
		panic(fmt.Sprintf("noc: RestoreNode: record of a %+v network restored into a %+v one", r.shape, io.shape))
	}
	io.startRestore(&r.record, n.cycle-r.cycle)
	faultsChanged := n.restoreNode(id, &r.router, io)
	io.endRestore("RestoreNode")
	if faultsChanged {
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
// encoding: its router, NI, inbound latches (the router's input latch
// and the NI credits), link and fault state, and
// retransmission entries. Every list in a section
// is length-prefixed, so a section is self-delimiting under a fixed
// configuration: two networks have equal AppendCanonical encodings
// exactly when every pair of same-node sections is equal. The model
// checker relies on that to key its visited set on one interned id
// per section.
func (n *Network) AppendCanonicalNode(b []byte, id int) []byte {
	b = n.routers[id].AppendCanonical(b)
	b = n.appendCanonicalNI(b, id)

	flits, credits := n.routers[id].Inputs()
	b = canon.Int(b, len(flits))
	for _, w := range flits {
		b = canon.Int(b, int(w.In))
		b = canon.Int(b, int(w.VC))
		b = core.AppendCanonicalFlit(b, w.F)
	}
	b = canon.Int(b, len(credits))
	for _, c := range credits {
		b = appendCanonicalCredit(b, c.Out, c.VC, c.VCFree)
	}
	b = canon.Int(b, len(n.inNICredits[id]))
	for _, c := range n.inNICredits[id] {
		b = appendCanonicalCredit(b, c.In, c.VC, c.VCFree)
	}

	b = appendBools(b, n.linkDead[id])
	b = canon.Bool(b, n.routerDead[id])
	for link := id * n.ports; link < (id+1)*n.ports; link++ {
		b = canon.Uint(canon.Uint(b, n.midFlight[link]), n.linkDrop[link])
	}

	b = canon.Uint(b, n.seqNext[id])
	// The timing entries, then those whose timer has stopped: a node
	// without retransmission writes two zero counts either way.
	es := n.retx[id]
	k := timing(es)
	b = canon.Int(b, k)
	for _, e := range es {
		if e.state != retxTiming {
			continue
		}
		b = canon.Uint(b, e.seq)
		b = canon.Int(b, e.dst)
		b = append(b, byte(e.class))
		b = canon.Int(b, e.size)
		// Timers relative to the current cycle, so states reached at
		// different absolute cycles can still coincide.
		b = canon.Uint(b, uint64(e.deadline-n.cycle))
		b = canon.Uint(b, uint64(e.interval))
		b = canon.Int(b, e.retries)
		b = canon.Int(b, int(e.alive))
	}
	b = canon.Int(b, len(es)-k)
	for _, e := range es {
		if e.state == retxTiming {
			continue
		}
		b = canon.Uint(b, e.seq)
		b = canon.Bool(b, e.state == retxDelivered)
		b = canon.Int(b, int(e.alive))
	}
	return b
}

// NodeQuiet reports whether node id has nothing of its own to do in the
// next Step: its router is quiescent (core.Router.Quiescent), its NI has
// nothing queued and nothing mid-injection, its inbound latches — the
// router's input latch and the NI's credits — are empty and it holds no
// retransmission entry. Such a node's Step changes nothing in its
// canonical section: it accepts nothing, sends nothing, ejects nothing,
// has no timer to run and no entry that the delivery or the drop of a
// copy elsewhere would write. What a neighbour sends it lands in its
// latches and makes it not quiet. So a node quiet before a
// Step and after it has the section it had, and the model checker keeps
// such a node's interned section id across a tick without encoding it.
func (n *Network) NodeQuiet(id int) bool {
	r, ni := n.routers[id], n.nis[id]
	flits, credits := r.Inputs()
	return r.Quiescent() && ni.activeVCs == 0 && ni.queued == 0 &&
		len(flits) == 0 && len(credits) == 0 && len(n.inNICredits[id]) == 0 &&
		len(n.retx[id]) == 0
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

// appendCanonicalCredit appends one latched credit: its port, VC and
// VC-free flag.
func appendCanonicalCredit(b []byte, port topology.Port, vc int8, free bool) []byte {
	b = canon.Int(b, int(port))
	b = canon.Int(b, int(vc))
	return canon.Bool(b, free)
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

// DropPendingCredit removes one credit from router id's input latch,
// the one latched last, and reports whether there was one to remove. It
// exists to sabotage the simulator on purpose: losing a credit permanently
// underfunds one VC's flow control, which eventually wedges the
// pipeline — exactly the class of bug the model checker's deadlock
// detector must catch. Used by `noctool check -sabotage` and the
// modelcheck counterexample tests; never called by simulation code.
func (n *Network) DropPendingCredit(id int) bool { return n.routers[id].DropInputCredit() }
