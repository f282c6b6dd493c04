// Package topology models the NoC's physical structure: the router
// graph, the five router ports (Local, North, East, South, West) and the
// deterministic minimal routing function each graph family uses. Two
// families are provided, both with radix-5 routers so the paper's router
// microarchitecture (5×5 crossbar, four directions plus the local NI
// port) carries over unchanged:
//
//   - Mesh — the W×H 2-D mesh the paper evaluates (8×8, 64 cores, XY
//     dimension-order routing). Edge routers simply lack the neighbours
//     that would fall off the grid.
//   - Torus — the same grid with wrap-around links closing each row and
//     column into a ring. Routing is minimal-direction dimension-order:
//     X is corrected before Y, and within a dimension the packet travels
//     whichever way around the ring is shorter (ties at exactly half the
//     ring break toward East/South, deterministically). The wrap links
//     halve the worst-case hop count but create a cycle in each ring's
//     channel-dependency graph; the network layer breaks it with
//     dateline virtual-channel layers (see internal/noc).
//
// # Coordinates and node IDs
//
// Both families share the coordinate system: node IDs are assigned
// row-major (id = y*W + x) with the origin at the north-west corner;
// North decreases y, South increases y, East increases x, West decreases
// x.
//
// # Link wiring
//
// A link is identified by its (router, output port) pair and is always
// paired with (neighbor, opposite port) on the far side: a flit leaving
// router u through East arrives on Neighbor(u, East)'s West port one
// cycle later, and credits flow back along the same pair. In a mesh,
// edge ports have no link (Neighbor reports ok=false). In a torus every
// directional port has a link; the wrap links connect column x=W-1 East
// to x=0 West and row y=H-1 South to y=0 North. Wrap(id, p) reports
// whether the link leaving id through p is such a wrap (dateline) link —
// the network layer's deadlock-avoidance scheme keys off it. A 2-wide
// torus dimension has two parallel links between the same router pair
// (the direct link and the wrap link); they are distinct links with
// distinct buffers, exactly as in hardware.
//
// The Topology interface abstracts the family; Mesh and Torus are
// cheap value types implementing it, and New builds one from a kind
// string (the noctool -topo flag).
package topology
