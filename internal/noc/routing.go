package noc

import (
	"encoding/binary"
	"math/bits"

	"gonoc/internal/topology"
)

// Fault-aware routing.
//
// When at least one network-level fault (dead link or dead router) is
// present, the network replaces the routers' baseline route computation
// with table lookups built here; with no faults the tables are dropped
// and routing is the exact, bit-identical baseline (XY on a mesh, the
// dateline RouteFn of torusroute.go on a torus).
//
// Deadlock freedom comes from a two-layer turn model. Each message
// class's VC range is split into two routing layers:
//
//	layer 0 — negative-first: turns from a positive direction (East,
//	          South) into a negative one (North, West) are forbidden,
//	layer 1 — positive-first: turns from a negative direction into a
//	          positive one are forbidden.
//
// Each turn model is individually deadlock-free, and a packet may switch
// layers exactly one way (0 → 1) with an arbitrary (non-180°) turn at
// the switch, so the combined channel-dependency graph is the union of
// two acyclic graphs joined by one-way edges — still acyclic. The
// resulting path shapes, a negative-first prefix plus one free turn plus
// a positive-first suffix, are rich enough to detour around any single
// dead link or dead router without losing connectivity (pinned by the
// exhaustive single-fault test).
//
// On a torus the wrap links add ring cycles that the turn model alone
// does not break, so they get a dateline-aware restriction on top: a
// packet may cross a wrap link only on its injection hop (the channel
// is entered with no upstream channel held) or as its single free
// 0 → 1 layer-switch hop. Within a layer, then, every wrap channel has
// no incoming channel dependency — intra-layer dependencies run over
// the non-wrap links only, which form exactly the W×H mesh the turn
// model is already acyclic on — so each layer's dependency graph stays
// acyclic and the one-way union argument above goes through unchanged.
// Connectivity under a single fault reduces to the proven mesh case:
// a dead wrap link leaves the whole mesh subgraph intact, and a dead
// mesh link or router is the exhaustively-proven mesh scenario (wrap
// hops only ever shorten paths). On a mesh topology.Wrap is
// identically false and the tables built here are bit-identical to the
// pre-torus ones.
//
// Routing state is (node, input port, layer): the input port encodes the
// packet's motion direction (Local means injection, which has no turn
// constraint and a free choice of starting layer), the layer is derived
// from the input VC index. Tables are built per destination by a
// level-synchronous reverse wave over that state graph (routeBuilder):
// a state's entry is written when the wave first reaches it, and it is
// a move into the previous level, so every next hop strictly decreases
// the remaining distance — table-routed paths cannot loop.

// numLayers is the number of deadlock-avoidance routing layers each
// message class's VC range is split into.
const numLayers = 2

// routeEntry is one routing decision: the output port to take and the
// layer of the downstream VC range to allocate from. out is -1 when the
// destination is unreachable from the state.
type routeEntry struct {
	out   int8
	layer int8
}

// nibble packs e into four bits: out+1 (0 for unreachable, 1 to 5 for
// Local to West) in the low three, the layer in the fourth.
func (e routeEntry) nibble() byte { return byte(e.out+1) | byte(e.layer)<<3 }

// entryOf unpacks the entry held in the low four bits of n.
func entryOf(n byte) routeEntry {
	return routeEntry{out: int8(n&7) - 1, layer: int8(n >> 3 & 1)}
}

// routeTable holds, per destination, a routeEntry for every routing
// state, two to a byte: entry i = dst*nStates+stateID is the low nibble
// of packed[i/2] when i is even, the high one when odd (nStates is a
// multiple of statesPerNode, so even, and every destination starts on a
// byte). A 32x32 mesh's table is 5.2 MB, a quarter of what a two-byte
// entry took. It is immutable once built; SetLinkFault/SetRouterFault swap
// in a fresh table during the serial hook phase.
type routeTable struct {
	nStates int
	packed  []byte
}

// statesPerNode is the routing-state count per node.
const statesPerNode = int(topology.NumPorts) * numLayers

// stateID flattens a routing state.
func stateID(node int, in topology.Port, layer int) int {
	return node*statesPerNode + int(in)*numLayers + layer
}

// turnLegal reports whether a packet that entered through port in on
// layer l may leave through port out on layer l2.
func turnLegal(in, out topology.Port, l, l2 int) bool {
	if in == topology.Local {
		return true // injection: no motion yet, any turn and layer
	}
	if out == in {
		return false // 180° turn, always illegal
	}
	if l2 < l {
		return false // layers are strictly one-way: 0 → 1
	}
	if l2 > l {
		return true // the layer switch is the packet's one free turn
	}
	dir := in.Opposite() // current motion direction
	if dir == out {
		return true // going straight is never a turn
	}
	negDir := dir == topology.North || dir == topology.West
	negOut := out == topology.North || out == topology.West
	if l == 0 {
		return !(!negDir && negOut) // negative-first: no positive→negative
	}
	return !(negDir && !negOut) // positive-first: no negative→positive
}

// allStates is the mask of every routing state of one node.
const allStates = 1<<statesPerNode - 1

// predLegal[wrap][out][l2] is the set of a node's routing states (bit
// in*numLayers+l) that may leave through out onto layer l2 of a link
// that is (wrap = 1) or is not a dateline link: turnLegal, plus the rule
// that a wrap channel is entered only with no upstream channel held
// (injection) or on the one free layer switch — an intra-layer wrap hop
// would close the ring's dependency cycle.
var predLegal = func() (t [2][topology.NumPorts][numLayers]uint16) {
	for out := topology.North; out <= topology.West; out++ {
		for in := topology.Local; in <= topology.West; in++ {
			for l := 0; l < numLayers; l++ {
				for l2 := l; l2 < numLayers; l2++ {
					// Injection states live on layer 0 only.
					if in == topology.Local && l != 0 || !turnLegal(in, out, l, l2) {
						continue
					}
					bit := uint16(1) << (int(in)*numLayers + l)
					t[0][out][l2] |= bit
					if in == topology.Local || l2 != l {
						t[1][out][l2] |= bit
					}
				}
			}
		}
	}
	return t
}()

// frontNode is one node of a wave level with the states reached there.
type frontNode struct {
	node   int32
	states uint16
}

// routeBuilder builds routeTables and owns the scratch that takes,
// sized on first use and recycled, so a rebuild allocates only the
// table it returns.
//
// Every move into a non-injection state (x, in, l2) leaves the one node
// Neighbor(x, in) through in.Opposite(), so the whole reverse adjacency
// of the state graph is a node and a predLegal mask per state — no edge
// lists — and injection states have no predecessors at all.
type routeBuilder struct {
	predNode []int32     // per state: the node its predecessors sit at, -1 for none
	predMask []uint16    // per state: which of predNode's states may move here
	seen     []uint16    // per node: states reached before the current level
	now      []uint16    // per node: states reached in the current level
	base     []int8      // per node: baseline port toward the current destination
	front    []frontNode // the current level
	next     []frontNode // the level it is reaching
	row      []byte      // one destination's entries, a nibble a byte; zero (unreachable) between destinations
}

// build computes the full per-destination routing tables for the given
// fault state. Dead routers are never entered (they can neither transit
// nor terminate traffic) and dead links carry nothing in either
// direction.
func (b *routeBuilder) build(topo topology.Topology, linkDead [][]bool, routerDead []bool) *routeTable {
	nodes := topo.Nodes()
	nStates := nodes * statesPerNode
	if len(b.seen) != nodes {
		*b = routeBuilder{
			predNode: make([]int32, nStates), predMask: make([]uint16, nStates),
			seen: make([]uint16, nodes), now: make([]uint16, nodes), base: make([]int8, nodes),
			front: make([]frontNode, 0, nodes), next: make([]frontNode, 0, nodes),
			row: make([]byte, nStates),
		}
	}
	for i := range b.predNode {
		b.predNode[i] = -1
	}
	for y := 0; y < nodes; y++ {
		if routerDead[y] {
			continue
		}
		for out := topology.North; out <= topology.West; out++ {
			x, ok := topo.Neighbor(y, out)
			if !ok || linkDead[y][out] || routerDead[x] {
				continue
			}
			legal := &predLegal[0][out]
			if topo.Wrap(y, out) {
				legal = &predLegal[1][out]
			}
			for l2 := 0; l2 < numLayers; l2++ {
				s := stateID(x, out.Opposite(), l2)
				b.predNode[s], b.predMask[s] = int32(y), legal[l2]
			}
		}
	}

	t := &routeTable{nStates: nStates, packed: make([]byte, nodes*nStates/2)}
	row := b.row
	for dst := 0; dst < nodes; dst++ {
		for s := 0; s < statesPerNode; s++ {
			row[dst*statesPerNode+s] = routeEntry{out: int8(topology.Local), layer: int8(s % numLayers)}.nibble()
		}
		if !routerDead[dst] {
			b.wave(topo, dst, row)
		}
		// Pack the row into the table, then leave it unreachable again
		// for the next destination.
		pack(t.packed[dst*nStates/2:][:nStates/2], row)
		clear(row)
	}
	return t
}

// pack writes the nibbles of row into out, two a byte: entry 2i in the
// low nibble of out[i], entry 2i+1 in the high one. It folds eight
// entries into four bytes at a time: each odd byte's nibble onto the
// byte below it, then the four bytes together.
func pack(out, row []byte) {
	row = row[:2*len(out)]
	i := 0
	for ; i+4 <= len(out); i += 4 {
		x := binary.LittleEndian.Uint64(row[2*i:])
		x = (x | x>>4) & 0x00ff00ff00ff00ff
		x = (x | x>>8) & 0x0000ffff0000ffff
		x = (x | x>>16) & 0xffffffff
		binary.LittleEndian.PutUint32(out[i:], uint32(x))
	}
	for ; i < len(out); i++ {
		out[i] = row[2*i] | row[2*i+1]<<4
	}
}

// wave fills ents, one destination's entries as nibbles (one a byte, in
// the builder's reused row, which stays in L1), by a level-synchronous
// reverse wave from dst: level k+1 is every unseen state with a move
// into level k. Such a state's minimal moves are exactly its moves into
// level k, and all of them are met while level k is expanded, so its
// entry is written the first time the level reaches it and replaced
// only by a better-ranked move of the same level (moveRank); there is
// no distance array and no second selection pass.
func (b *routeBuilder) wave(topo topology.Topology, dst int, ents []byte) {
	for y := range b.base {
		b.base[y] = int8(topo.Route(y, dst))
	}
	clear(b.seen)
	b.seen[dst] = allStates
	front, next := append(b.front[:0], frontNode{int32(dst), allStates}), b.next[:0]
	for len(front) > 0 {
		for _, f := range front {
			// Injection states (the low numLayers bits) have no predecessors.
			for m := f.states >> numLayers << numLayers; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros16(m)
				s := int(f.node)*statesPerNode + bit
				y := b.predNode[s]
				if y < 0 {
					continue
				}
				reached := b.predMask[s] &^ b.seen[y]
				if reached == 0 {
					continue
				}
				if b.now[y] == 0 {
					next = append(next, frontNode{node: y})
				}
				ties := reached & b.now[y]
				b.now[y] |= reached
				move := routeEntry{out: int8(topology.Port(bit / numLayers).Opposite()), layer: int8(bit % numLayers)}.nibble()
				row, base := ents[int(y)*statesPerNode:][:statesPerNode], b.base[y]
				for r := reached &^ ties; r != 0; r &= r - 1 {
					row[bits.TrailingZeros16(r)] = move
				}
				for rank := moveRank(move, base); ties != 0; ties &= ties - 1 {
					if e := &row[bits.TrailingZeros16(ties)]; rank < moveRank(*e, base) {
						*e = move
					}
				}
			}
		}
		for i := range next {
			y := next[i].node
			next[i].states = b.now[y]
			b.seen[y] |= b.now[y]
			b.now[y] = 0
		}
		front, next = next, front[:0]
	}
}

// moveRank orders the moves out of one state, lower first: the port the
// topology's baseline routing would take (XY on a mesh, minimal-
// direction DOR on a torus), then the lower layer, then the lower port.
// Every X-then-Y path shape is realizable in the two-layer model (a
// positive→negative turn rides the free 0→1 layer switch), so traffic
// whose baseline path misses the faults keeps the baseline's load
// balance — a single smallest-port tie-break instead funnels every tied
// flow onto the same links and congests the whole network. A move's
// nibble already orders by layer, then port: the layer sits above
// out+1.
func moveRank(m byte, base int8) int {
	rank := int(m)
	if int8(m&7)-1 != base {
		rank |= 1 << 4
	}
	return rank
}

// lookup returns the routing decision for a packet at node (entered
// through in, on layer) heading for dst.
func (t *routeTable) lookup(dst, node int, in topology.Port, layer int) routeEntry {
	i := dst*t.nStates + stateID(node, in, layer)
	return entryOf(t.packed[i>>1] >> (uint(i&1) * 4))
}

// reachable reports whether a packet injected at src can reach dst under
// the table's fault state.
func (t *routeTable) reachable(src, dst int) bool {
	return t.lookup(dst, src, topology.Local, 0).out >= 0
}
