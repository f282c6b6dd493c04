package noc

import (
	"gonoc/internal/topology"
)

// refBuildRoutes is the table builder routeBuilder.build replaced, kept
// verbatim (bar its result type: [dst][state] rows, not a *routeTable)
// as the differential oracle: forward adjacency lists, a per-destination
// BFS into a dist array, then a selection pass over every state's moves.
// Dead routers are never entered (they can neither transit nor terminate
// traffic) and dead links carry nothing in either direction. Wrap
// (dateline) links are crossed only on injection or layer-switch hops,
// which keeps each layer's channel-dependency graph acyclic on a torus
// (see the comment at the top of routing.go).
func refBuildRoutes(topo topology.Topology, linkDead [][]bool, routerDead []bool) [][]routeEntry {
	nStates := topo.Nodes() * statesPerNode

	// Forward adjacency over routing states. It is independent of the
	// destination, so it is built once and reversed for the BFS.
	type move struct {
		out, layer int8
		to         int32
	}
	adj := make([][]move, nStates)
	for node := 0; node < topo.Nodes(); node++ {
		if routerDead[node] {
			continue
		}
		for in := topology.Local; in <= topology.West; in++ {
			for l := 0; l < numLayers; l++ {
				if in == topology.Local && l != 0 {
					continue // injection states live on layer 0 only
				}
				s := stateID(node, in, l)
				for out := topology.North; out <= topology.West; out++ {
					nb, ok := topo.Neighbor(node, out)
					if !ok || linkDead[node][out] || routerDead[nb] {
						continue
					}
					wrap := topo.Wrap(node, out)
					for l2 := l; l2 < numLayers; l2++ {
						if !turnLegal(in, out, l, l2) {
							continue
						}
						if wrap && in != topology.Local && l2 == l {
							// A wrap channel may only be entered with no
							// upstream channel held (injection) or on the
							// one free layer switch; an intra-layer wrap
							// hop would close the ring's dependency cycle.
							continue
						}
						adj[s] = append(adj[s], move{
							out: int8(out), layer: int8(l2),
							to: int32(stateID(nb, out.Opposite(), l2)),
						})
					}
				}
			}
		}
	}
	rev := make([][]int32, nStates)
	for s := range adj {
		for _, m := range adj[s] {
			rev[m.to] = append(rev[m.to], int32(s))
		}
	}

	entries := make([][]routeEntry, topo.Nodes())
	dist := make([]int32, nStates)
	queue := make([]int32, 0, nStates)
	for dst := 0; dst < topo.Nodes(); dst++ {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		if !routerDead[dst] {
			for in := topology.Local; in <= topology.West; in++ {
				for l := 0; l < numLayers; l++ {
					s := int32(stateID(dst, in, l))
					dist[s] = 0
					queue = append(queue, s)
				}
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range rev[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}

		ents := make([]routeEntry, nStates)
		for s := 0; s < nStates; s++ {
			if s/statesPerNode == dst {
				ents[s] = routeEntry{out: int8(topology.Local), layer: int8(s % numLayers)}
				continue
			}
			// Among minimal-distance moves, prefer the port the
			// topology's baseline routing would take (XY on a mesh,
			// minimal-direction DOR on a torus). Every X-then-Y path
			// shape is realizable in the two-layer model (a
			// positive→negative turn rides the free 0→1 layer switch),
			// so traffic whose baseline path misses the faults keeps
			// the baseline's load balance — a single smallest-port
			// tie-break instead funnels every tied flow onto the same
			// links and congests the whole network.
			xy := int8(topo.Route(s/statesPerNode, dst))
			best := routeEntry{out: -1}
			bestDist := int32(-1)
			for _, m := range adj[s] {
				d := dist[m.to]
				if d < 0 {
					continue
				}
				better := bestDist < 0 || d < bestDist
				if !better && d == bestDist {
					switch bp, mp := best.out == xy, m.out == xy; {
					case mp != bp:
						better = mp
					case m.layer != best.layer:
						better = m.layer < best.layer
					default:
						better = m.out < best.out
					}
				}
				if better {
					best = routeEntry{out: m.out, layer: m.layer}
					bestDist = d
				}
			}
			ents[s] = best
		}
		entries[dst] = ents
	}
	return entries
}
