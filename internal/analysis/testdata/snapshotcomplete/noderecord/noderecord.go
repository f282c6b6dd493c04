// Fixture: the network's node-record save and restore. saveNode and
// restoreNode are the one per-node body of both the whole-network and
// the single-node paths, and restoreNode skips seqNext, a
// //noc:committed field: no restore function brings it back, so both
// the network and the record report it.
package noc

type Network struct {
	//noc:committed
	cycle int
	//noc:committed
	seqNext []uint64 // want `field seqNext of Network is not referenced by its restore functions \(Restore/RestoreNode/restoreNode/restoreNI\)`
	credits []int
}

type NodeRecord struct {
	cycle   int
	seqNext uint64 // want `field seqNext of NodeRecord is not referenced by its restore functions \(RestoreNode/restoreNode\)`
	credits int
}

func (n *Network) SnapshotInto(old []NodeRecord) []NodeRecord {
	out := old[:0]
	for id := range n.credits {
		r := NodeRecord{cycle: n.cycle}
		n.saveNode(id, &r)
		out = append(out, r)
	}
	return out
}

func (n *Network) SaveNode(id int) *NodeRecord {
	r := &NodeRecord{cycle: n.cycle}
	n.saveNode(id, r)
	return r
}

func (n *Network) saveNode(id int, r *NodeRecord) {
	r.seqNext = n.seqNext[id]
	r.credits = saveNI(n.credits[id])
}

func saveNI(c int) int { return c }

func (n *Network) Restore(s []NodeRecord) {
	for id := range s {
		n.cycle = s[id].cycle
		n.restoreNode(id, &s[id])
	}
}

func (n *Network) RestoreNode(id int, r *NodeRecord) {
	if r.cycle > n.cycle {
		panic("record from the future")
	}
	n.restoreNode(id, r)
}

func (n *Network) restoreNode(id int, r *NodeRecord) {
	n.credits[id] = restoreNI(r.credits)
}

func restoreNI(c int) int { return c }

func (n *Network) AppendCanonical(b []byte) []byte {
	for id := range n.credits {
		b = n.AppendCanonicalNode(b, id)
	}
	return b
}

func (n *Network) AppendCanonicalNode(b []byte, id int) []byte {
	b = n.appendCanonicalNI(b, id)
	return append(b, byte(n.seqNext[id]-uint64(n.cycle)))
}

func (n *Network) appendCanonicalNI(b []byte, id int) []byte { return append(b, byte(n.credits[id])) }
