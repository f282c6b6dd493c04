// Package noc wires routers, links and network interfaces into a complete
// network-on-chip and drives end-to-end simulations: traffic generation,
// fault-injection hooks and statistics collection. Three topologies are
// supported — the paper's 2-D mesh, a torus and a concentrated mesh (see
// internal/topology and Config.Topo).
//
// The cycle model matches GARNET's at the granularity the paper needs:
// routers have the 4-stage pipeline of Figure 2, inter-router links take
// one cycle in each direction (flits downstream, credits upstream), and
// each node's NI injects at most one flit per cycle.
//
// # Parallel stepping
//
// Step is an explicit multi-phase tick. The compute phase advances every
// node — delivering the node's latched link traffic, ticking its NI and
// its router — reading only last-cycle state, so nodes are mutually
// independent and the phase shards over a persistent worker pool
// (Config.Workers). The commit phase then applies all cross-node
// effects. Local effects (ejections, statistics, closed-loop traffic
// replies, and the discard of flits that meet a dead link) commit
// serially in canonical node order, which also files every flit and
// credit that crosses a link into the receiving node's link registers;
// link transfers then commit pull-side — each destination node moves
// what its registers hold into its latches — which makes every latch
// single-writer, so the link commit also shards over the pool, network
// faults or not. Serial and
// parallel execution run the identical code in the identical order, so
// results are bit-exact for any worker count: the same flit arrival
// cycles, the same statistics, and the same observability event multiset
// (see obs.SortEvents for the canonical event order used when comparing
// traces).
//
// # Memory discipline
//
// The steady-state Step path allocates nothing (pinned by
// TestStepZeroAllocSteadyState; see DESIGN.md). All per-cycle traffic
// flows through preallocated storage:
// the inter-node latches are fixed-capacity buckets carved from
// contiguous arenas, router output buffers are drained by handing the
// caller the filled slice and retaining the backing array, and neighbour
// lookups go through a flat table baked at construction time instead of
// per-flit coordinate arithmetic.
package noc

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"gonoc/internal/core"
	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

const localPort = topology.Local

// Traffic is the workload driving a simulation. Implementations must be
// deterministic given their construction-time seed.
type Traffic interface {
	// Offered returns the packets node creates at cycle c (usually zero
	// or one). The network stamps CreatedAt.
	Offered(node int, c sim.Cycle) []*flit.Packet
	// OnEject is invoked when a packet is delivered; any returned packets
	// are offered at the delivery node (coherence-style replies). May be
	// a no-op for open-loop synthetic traffic.
	OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet
}

// Config configures a network.
type Config struct {
	// Width and Height are the router-grid dimensions (the paper uses
	// 8×8).
	Width, Height int
	// Topo selects the topology family: "" or "mesh" (the default),
	// "torus" or "cmesh". A torus needs at least numLayers VCs per
	// message class for its dateline deadlock avoidance; all three
	// families support network-level link/router faults (SetLinkFault,
	// SetRouterFault) on top of router-internal faults — on a torus
	// the fault-aware tables restrict wrap-link crossings to keep the
	// dateline scheme deadlock free (see routing.go).
	Topo string
	// Conc is the cmesh concentration (terminals per router); 0 means 1.
	// Ignored unless Topo is "cmesh".
	Conc int
	// Router configures every router in the network.
	Router router.Config
	// Warmup is the statistics warmup window in cycles.
	Warmup sim.Cycle
	// Workers is the number of goroutines Step's parallel phases are
	// sharded over: 0 selects runtime.GOMAXPROCS(0), 1 is the serial
	// path, and any value is clamped to the node count. Every worker
	// count produces bit-exact identical simulations; negative values
	// are rejected by New.
	Workers int
	// Retx configures the NIs' end-to-end retransmission layer; the
	// zero value disables it.
	Retx RetxConfig
}

// RetxConfig configures end-to-end packet retransmission at the network
// interfaces: sources keep a bounded buffer of unacknowledged packets
// and re-inject them on a cycle timeout with exponential backoff, and
// sinks suppress the duplicate deliveries this can create. Combined with
// fault-aware routing it delivers 100% of packets under any single link
// or router fault.
type RetxConfig struct {
	// Timeout is the initial retransmission timeout in cycles, counted
	// from the offer; 0 disables retransmission entirely. Set it above
	// the worst-case delivery latency of the configuration or duplicates
	// will be common (they are suppressed, but cost bandwidth).
	Timeout sim.Cycle
	// Backoff multiplies the timeout after every retransmission
	// (exponential backoff); values below 1 default to 2.
	Backoff int
	// MaxRetries bounds the retransmissions per packet; 0 defaults to 8.
	// A packet still undelivered after MaxRetries is abandoned (it has
	// already been recorded as dropped when its last copy died).
	MaxRetries int
	// Buffer bounds the retransmission entries tracked per source node;
	// 0 defaults to 32. Packets offered while the buffer is full are
	// sent without retransmission protection.
	Buffer int
}

// withDefaults resolves the zero-value knobs of an enabled config.
func (rc RetxConfig) withDefaults() RetxConfig {
	if rc.Timeout <= 0 {
		return RetxConfig{}
	}
	if rc.Backoff < 1 {
		rc.Backoff = 2
	}
	if rc.MaxRetries <= 0 {
		rc.MaxRetries = 8
	}
	if rc.Buffer <= 0 {
		rc.Buffer = 32
	}
	return rc
}

// DefaultConfig returns the paper's evaluation configuration: an 8×8 mesh
// of protected 5×5 routers with 4 VCs.
func DefaultConfig() Config {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	return Config{Width: 8, Height: 8, Router: rc, Warmup: 1000}
}

// Network is a complete NoC: routers, links and network interfaces on
// the configured topology.
type Network struct {
	cfg Config //noc:derived immutable configuration, fixed at construction
	//noc:derived immutable configuration, fixed at construction
	topo topology.Topology
	// mesh is the underlying mesh router grid exposed by the Mesh()
	// accessor: the mesh itself, or the cmesh's router grid. hasMesh is
	// false for the torus, whose wrap links make it not a mesh (use
	// Topo() there). Fault-aware routing runs on topo directly for all
	// families.
	//noc:derived immutable configuration, derived from topo at build time
	mesh topology.Mesh
	//noc:derived immutable configuration, derived from topo at build time
	hasMesh bool

	// baseRoute is the RouteFn installed while the network is fault
	// free: nil for mesh/cmesh (the routers' built-in XY computation)
	// and torusRoute for a torus. rebuildRoutes restores it when the
	// last network fault is repaired.
	//noc:derived immutable wiring, fixed at construction; rebuildRoutes reinstalls it
	baseRoute core.RouteFn

	// ports is the per-router port count. nbr and wrap are the link
	// tables pre-resolved at build time, indexed id*ports+p: nbr holds
	// the node reached through port p of node id (-1 when the port has
	// no link) and wrap marks torus dateline links. Baking them here
	// keeps the hot commit and routing paths free of per-flit
	// coordinate arithmetic.
	ports int     //noc:derived immutable link table, baked at build time
	nbr   []int32 //noc:derived immutable link table, baked at build time
	wrap  []bool  //noc:derived immutable link table, baked at build time

	routers []*core.Router
	nis     []*NI
	//noc:derived external input source, outside the snapshot scope by contract (drivers re-seed it)
	traffic Traffic
	//noc:derived observational only: saved and restored, but excluded from the canonical encoding because statistics never feed arbitration
	stats *stats.Collector
	cycle sim.Cycle //noc:committed
	//noc:committed
	//noc:derived saved and restored, but excluded from the canonical encoding like the packet IDs it mints: bookkeeping identity, never behaviour
	nextID uint64

	// hooks run at the start of every cycle (fault injection, probes).
	//noc:derived immutable wiring, registered before stepping starts
	hooks []func(c sim.Cycle)

	// linkFlits counts flits sent per (router, output port), for
	// utilization analysis and the heatmap.
	//
	//noc:committed
	//noc:derived observational only: saved and restored, but excluded from the canonical encoding because utilization counts never feed arbitration
	linkFlits [][]uint64

	// obsNodes holds each node's pre-bound observability handle, all nil
	// when cfg.Router.Obs is nil (the default).
	//noc:derived immutable wiring, bound at construction; observational only
	obsNodes []*obs.NodeObs

	// Link latches, indexed by destination node: filled by the commit
	// phase, drained by the next cycle's compute phase. Each bucket has
	// exactly one writer per phase — the destination's compute worker
	// drains it, the destination's commit worker fills it — and each is
	// a fixed-capacity arena bucket (makeBuckets), so steady-state
	// appends never allocate. Entries are the narrow inFlit and credit.
	inFlits     [][]inFlit
	inCredits   [][]credit
	inNICredits [][]credit

	// Staged per-node outputs of the compute phase, consumed by the
	// local commit. Each entry aliases the producing router's reusable
	// output buffer: valid from the end of the node's compute until
	// that router's next Tick.
	stagedFlits   [][]router.OutFlit //noc:derived per-cycle scratch, consumed by commit before the step boundary
	stagedCredits [][]router.Credit  //noc:derived per-cycle scratch, consumed by commit before the step boundary

	// The link registers: what crosses each link this cycle, filed by the
	// serial local commit and pulled by the receiving node's link commit.
	// Both are indexed u*ports+p by the receiving node u and its input
	// port p. flitReg holds the one flit a link carries per cycle (a
	// router sends at most one flit through an output port per cycle;
	// commitLocal panics on a second), creditReg the credits, in the
	// order the sender staged them (creditRun). inbound[u] has bit p set
	// when either of u's registers at port p holds something, so the
	// pull of a node nothing crosses into is one load of this dense
	// array (router.Config.Validate caps Ports at 64). The local commit
	// writes them and the link commit empties them, so all three are
	// empty at the step boundary (assertPostStep checks it).
	flitReg   []inFlit    //noc:derived per-cycle scratch, filled by commitLocal and emptied by commitLinksNode before the step boundary
	creditReg []creditRun //noc:derived per-cycle scratch, filled by commitLocal and emptied by commitLinksNode before the step boundary
	inbound   []uint64    //noc:derived per-cycle scratch, filled by commitLocal and emptied by commitLinksNode before the step boundary

	// Network-level fault state. linkDead is the explicit per-(node,
	// port) dead-link set (kept symmetric: both endpoints of a link are
	// marked); routerDead marks completely failed routers. routes is the
	// fault-aware routing table, nil while the network is fault-free —
	// routing is then the exact XY baseline.
	linkDead   [][]bool //noc:committed
	routerDead []bool   //noc:committed
	//noc:committed
	//noc:derived recomputed on restore: rebuildRoutes reconstructs it from linkDead/routerDead, which the snapshot covers
	routes *routeTable
	//noc:derived scratch of rebuildRoutes, overwritten by every build and never read between them; no simulated state
	routeBuilder routeBuilder

	// Per-link wormhole state: one mask word per (node, output port),
	// indexed id*ports+p like nbr, bit v standing for downstream VC v
	// (router.Config.Validate caps VCs at 64). midFlight marks a packet
	// whose head crossed the link while it was alive (such packets
	// complete gracefully if the link then dies); linkDrop marks a packet
	// being discarded at a dead link, from its dropped head until its
	// tail.
	midFlight []uint64 //noc:committed
	linkDrop  []uint64 //noc:committed

	// End-to-end retransmission state: per-source sequence numbers,
	// retransmission buffers, and per-sink duplicate-suppression windows
	// keyed by source node. retxCfg is cfg.Retx with defaults resolved.
	seqNext   []uint64             //noc:committed
	retx      [][]retxEntry        //noc:committed
	delivered []map[int]*seqWindow //noc:committed
	//noc:derived immutable configuration, resolved from cfg.Retx at construction
	retxCfg RetxConfig

	// io is the scratch Snapshot and Restore share, nil until the first
	// of either.
	io *snapIO //noc:derived snapshot/restore scratch, empty of meaning between calls
	// canonSrcs and canonSeen are AppendCanonical's buffers for sorting
	// the duplicate-suppression windows' map keys.
	canonSrcs []int    //noc:derived canonical-encoding scratch, empty of meaning between calls
	canonSeen []uint64 //noc:derived canonical-encoding scratch, empty of meaning between calls

	// workers is the resolved parallel-phase shard count (>= 1); pool is
	// the persistent worker pool, started lazily on the first parallel
	// phase and released by Close.
	workers int       //noc:derived immutable execution-engine configuration, not simulated state
	pool    *stepPool //noc:derived execution-engine plumbing, not simulated state
}

// inFlit and credit are the network's latched link traffic: what
// router.InFlit, core.CreditIn and router.Credit carry, narrow
// (router.Config caps ports and VCs at 64). The latches hold a cycle's
// traffic for every node, so the entry width is most of what they cost.
type inFlit struct {
	f      *flit.Flit
	in, vc uint8
}

type credit struct {
	port, vc uint8
	free     bool
}

// creditRun is the link register of the credits crossing one link in one
// cycle, which rebuilds them in the order the sender staged them. A
// router stages the credits of an input port as its drain stage's, one
// per Dropping VC in ascending VC order, then at most one from its
// crossbar stage (one switch-allocation grant per input port). So the
// credits are an ascending run, held as a mask of VCs plus a mask of
// their VC-free flags, and at most one credit below the run's top,
// held apart in last. add files a credit and panics on anything that is
// not of that form; commitLinksNode replays the run in ascending order,
// then last. The zero value is the empty register.
type creditRun struct {
	vcs, free uint64
	// last is one more than the VC of the credit held apart, 0 for none.
	last     uint8
	lastFree bool
}

// add files the next staged credit, for VC v.
func (c *creditRun) add(v int, free bool) {
	bit := uint64(1) << uint(v)
	if c.last == 0 && c.vcs>>uint(v) == 0 {
		// Above every VC of the run: it extends the run.
		c.vcs |= bit
		if free {
			c.free |= bit
		}
		return
	}
	if c.last != 0 {
		panic(fmt.Sprintf("noc: credit for vc%d staged after %#x and vc%d on one link in one cycle: more than the drain run and one crossbar credit", v, c.vcs, c.last-1))
	}
	c.last, c.lastFree = uint8(v)+1, free
}

// retxEntry is one unacknowledged packet in a source's retransmission
// buffer: everything needed to clone it, plus the timer state.
type retxEntry struct {
	seq       uint64
	dst       int
	class     flit.Class
	size      int
	createdAt sim.Cycle
	deadline  sim.Cycle
	interval  sim.Cycle
	retries   int
}

// seqWindow is a sink's duplicate-suppression state for one source: all
// sequence numbers below floor have been delivered, plus a sparse set of
// delivered numbers above it (compacted as the floor advances).
type seqWindow struct {
	floor uint64
	seen  map[uint64]bool
}

// stepPhase selects the work a pooled worker runs over its node shard.
type stepPhase int8

const (
	phaseCompute stepPhase = iota
	phaseCommitLinks
)

// stepJob is one phase dispatch to the worker pool.
type stepJob struct {
	phase stepPhase
	cycle sim.Cycle
}

// stepPool is the persistent worker pool for Step's parallel phases: one
// goroutine per shard, parked on a per-worker channel between phases.
// Channel send/receive orders each worker's reads after the previous
// phase's writes, and wg.Wait orders the next phase after every worker's
// writes, so phases never race.
type stepPool struct {
	start []chan stepJob
	wg    sync.WaitGroup
	once  sync.Once
}

// makeBuckets carves nodes zero-length, fixed-capacity buckets out of
// one contiguous arena. Steady-state appends stay allocation-free and
// the per-node latches sit densely in memory. The three-index slice pins
// each bucket's capacity at per elements: a burst beyond that
// reallocates the bucket out of the arena — still correct, just off the
// fast path — so per only needs to cover the per-cycle common case, not
// a hard worst case.
func makeBuckets[T any](nodes, per int) [][]T {
	arena := make([]T, nodes*per)
	b := make([][]T, nodes)
	for i := range b {
		b[i] = arena[i*per : i*per : (i+1)*per]
	}
	return b
}

// New builds a network. All routers share cfg.Router; traffic may be nil
// for manually-driven tests.
func New(cfg Config, traffic Traffic) (*Network, error) {
	if cfg.Width < 2 || cfg.Height < 1 {
		return nil, fmt.Errorf("noc: invalid %dx%d dimensions", cfg.Width, cfg.Height)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("noc: invalid Workers %d: want 0 (all cores), 1 (serial) or a positive shard count", cfg.Workers)
	}
	topo, err := topology.New(cfg.Topo, cfg.Width, cfg.Height, cfg.Conc)
	if err != nil {
		return nil, err
	}
	if topo.Kind() == "torus" {
		for cls := 0; cls < cfg.Router.Classes; cls++ {
			lo, hi := cfg.Router.ClassRange(cls)
			if hi-lo < numLayers {
				return nil, fmt.Errorf("noc: torus dateline routing needs >= %d VCs per message class (class %d has %d): raise VCs or lower Classes",
					numLayers, cls, hi-lo)
			}
		}
	}
	nodes := topo.Nodes()
	if o := cfg.Router.Obs; o != nil {
		if err := o.CheckShape(nodes, cfg.Router.Ports, cfg.Router.VCs); err != nil {
			return nil, fmt.Errorf("noc: %dx%d %s: %w", cfg.Width, cfg.Height, topo.Kind(), err)
		}
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nodes {
		workers = nodes
	}
	ports := cfg.Router.Ports
	n := &Network{
		cfg:     cfg,
		topo:    topo,
		ports:   ports,
		traffic: traffic,
		stats:   stats.NewCollector(cfg.Warmup),
		workers: workers,
		retxCfg: cfg.Retx.withDefaults(),
	}
	switch t := topo.(type) {
	case topology.Mesh:
		n.mesh, n.hasMesh = t, true
	case topology.CMesh:
		n.mesh, n.hasMesh = t.Mesh, true
	}
	n.nbr = make([]int32, nodes*ports)
	n.wrap = make([]bool, nodes*ports)
	for id := 0; id < nodes; id++ {
		for p := 0; p < ports; p++ {
			i := id*ports + p
			n.nbr[i] = -1
			if p == int(topology.Local) {
				continue
			}
			if nb, ok := topo.Neighbor(id, topology.Port(p)); ok {
				n.nbr[i] = int32(nb)
			}
			n.wrap[i] = topo.Wrap(id, topology.Port(p))
		}
	}
	n.routers = make([]*core.Router, nodes)
	n.nis = make([]*NI, nodes)
	n.linkFlits = makeGrid[uint64](nodes, ports)
	n.obsNodes = make([]*obs.NodeObs, nodes)
	// Latch bucket capacities cover the steady-state per-cycle maxima:
	// one flit per input port; per upstream link up to one credit per VC
	// plus the ejection and drop-synthesized credits; up to one local
	// credit per VC from the drain and crossbar stages each.
	n.inFlits = makeBuckets[inFlit](nodes, ports)
	n.inCredits = makeBuckets[credit](nodes, (ports-1)*cfg.Router.VCs+ports+2)
	n.inNICredits = makeBuckets[credit](nodes, 2*cfg.Router.VCs)
	n.stagedFlits = make([][]router.OutFlit, nodes)
	n.stagedCredits = make([][]router.Credit, nodes)
	n.flitReg = make([]inFlit, nodes*ports)
	n.creditReg = make([]creditRun, nodes*ports)
	n.inbound = make([]uint64, nodes)
	n.linkDead = makeGrid[bool](nodes, ports)
	n.routerDead = make([]bool, nodes)
	n.midFlight = make([]uint64, nodes*ports)
	n.linkDrop = make([]uint64, nodes*ports)
	n.seqNext = make([]uint64, nodes)
	n.retx = make([][]retxEntry, nodes)
	n.delivered = make([]map[int]*seqWindow, nodes)
	for id := 0; id < nodes; id++ {
		r, err := core.New(id, topo, cfg.Router)
		if err != nil {
			return nil, err
		}
		n.routers[id] = r
		n.obsNodes[id] = obs.BindNode(cfg.Router.Obs, id, ports, cfg.Router.VCs)
		node := id
		n.nis[id] = newNI(id, r, n.obsNodes[id], func(p *flit.Packet, c sim.Cycle) {
			if n.retxCfg.Timeout > 0 {
				if n.isDuplicate(node, p) {
					n.stats.RecordDuplicate(p)
					if on := n.obsNodes[node]; on != nil {
						on.NIDupSuppressed(c, p.Src)
					}
					return
				}
				n.releaseRetx(p.Src, p.Seq)
			}
			n.stats.RecordEjection(p)
			if on := n.obsNodes[node]; on != nil {
				on.NIEject(c, p.Latency())
			}
			if n.traffic != nil {
				for _, rp := range n.traffic.OnEject(p, c) {
					n.offer(node, rp, c)
				}
			}
		})
	}
	if topo.Kind() == "torus" {
		n.baseRoute = n.torusRoute
		for _, r := range n.routers {
			r.SetRouteFn(n.baseRoute)
		}
	}
	// The window ring rolls from the serial pre-phase, keeping the bucket
	// index stable while compute-phase workers add samples.
	if o := cfg.Router.Obs; o != nil {
		if w := o.Windows; w != nil {
			n.AddHook(w.Roll)
		}
	}
	return n, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, traffic Traffic) *Network {
	n, err := New(cfg, traffic)
	if err != nil {
		panic(err)
	}
	return n
}

// Topo returns the network topology.
func (n *Network) Topo() topology.Topology { return n.topo }

// Mesh returns the network's mesh router graph: the topology itself for
// a mesh, the router grid for a cmesh. It panics for a torus — use Topo
// for topology-generic access.
func (n *Network) Mesh() topology.Mesh {
	if !n.hasMesh {
		panic(fmt.Sprintf("noc: Mesh() on a %s network: use Topo()", n.topo.Kind()))
	}
	return n.mesh
}

// Router returns the router at node id.
func (n *Network) Router(id int) *core.Router { return n.routers[id] }

// NI returns the network interface at node id.
func (n *Network) NI(id int) *NI { return n.nis[id] }

// Stats returns the statistics collector.
func (n *Network) Stats() *stats.Collector { return n.stats }

// Now returns the current cycle.
func (n *Network) Now() sim.Cycle { return n.cycle }

// AddHook registers a function invoked at the start of every cycle, used
// by the fault injector and test probes.
func (n *Network) AddHook(h func(c sim.Cycle)) { n.hooks = append(n.hooks, h) }

// Obs returns the observer the network was configured with, or nil when
// observability is disabled. The fault injectors and the watchdog use it
// to report their events into the same registry and trace.
func (n *Network) Obs() *obs.Observer { return n.cfg.Router.Obs }

// neighbor returns the node reached from id through port p, or -1 when
// the port has no link, via the table pre-resolved at build time.
func (n *Network) neighbor(id int, p topology.Port) int {
	return int(n.nbr[id*n.ports+int(p)])
}

// wrapLink reports whether the link leaving id through p is a torus
// dateline link, via the table pre-resolved at build time.
func (n *Network) wrapLink(id int, p topology.Port) bool {
	return n.wrap[id*n.ports+int(p)]
}

// offer stamps and enqueues a packet at node. With network faults
// present, packets whose destination is unreachable (and every packet at
// a dead node) are dropped here, with the drop counted, instead of
// entering the network to hang. It allocates from the shared packet-ID
// and sequence counters, so it must only run in Step's serial phases.
//
//noc:commit-only
func (n *Network) offer(node int, p *flit.Packet, c sim.Cycle) {
	p.ID = n.nextID
	n.nextID++
	p.CreatedAt = c
	p.Src = node
	p.Seq = n.seqNext[node]
	n.seqNext[node]++
	n.stats.RecordCreation(p)
	if on := n.obsNodes[node]; on != nil {
		on.NIOffer(c, p.Dst)
	}
	if n.dropIfUnreachable(node, p, c) {
		return
	}
	n.trackRetx(node, p, c)
	n.nis[node].Offer(p)
}

// Inject offers a packet from src to the network immediately (for tests
// and trace-driven runs). Class and Size must be set; Src is overwritten.
func (n *Network) Inject(src int, p *flit.Packet) { n.offer(src, p, n.cycle) }

// Workers returns the resolved parallel-phase shard count (>= 1).
func (n *Network) Workers() int { return n.workers }

// Step advances the network one cycle as an explicit multi-phase tick:
//
//  1. Serial pre-phase: cycle hooks (fault injection, probes), the
//     retransmission-timer scan and traffic generation, all of which
//     touch shared state (router fault bits, packet IDs, the stats
//     collector) in node order.
//  2. Compute phase: every node delivers its latched link traffic,
//     ticks its NI and ticks its router, reading only last-cycle
//     state. Nodes are independent, so the phase shards over the
//     worker pool when Workers > 1.
//  3. Local commit: per-node effects that touch shared state — packet
//     ejections (statistics, closed-loop traffic replies), drops of
//     unreachable packets, flits discarded at a dead link, the state of
//     every link a flit crosses — applied serially in canonical node
//     order, filing what crosses a link into the receiver's link
//     registers.
//  4. Link commit: each destination node pulls what its link registers
//     hold into its inbound latches for delivery next cycle. Every
//     latch has a single writer, so this phase also shards over the
//     pool when Workers > 1.
//
// Because every phase runs the same code in the same order regardless of
// sharding, the simulation is bit-exact identical for every worker
// count.
func (n *Network) Step() {
	c := n.cycle
	n.generate(c)
	n.compute(c)
	n.commit(c)
	if assertEnabled {
		n.assertPostStep()
	}
	n.cycle++
}

// generate is Step's serial pre-phase: cycle hooks, the
// retransmission-timer scan and traffic generation, in node order.
//
//noc:commit-only
func (n *Network) generate(c sim.Cycle) {
	for _, h := range n.hooks {
		h(c)
	}
	n.retxScan(c)
	if n.traffic != nil {
		for node := range n.nis {
			for _, p := range n.traffic.Offered(node, c) {
				n.offer(node, p, c)
			}
		}
	}
}

// compute is Step's compute phase: computeNode for every node, sharded
// over the worker pool when Workers > 1.
func (n *Network) compute(c sim.Cycle) {
	if n.workers == 1 {
		for id := range n.routers {
			n.computeNode(id, c)
		}
	} else {
		n.runPhase(phaseCompute, c)
	}
}

// runPhase dispatches one parallel phase to the worker pool and waits
// for every shard to finish.
func (n *Network) runPhase(phase stepPhase, c sim.Cycle) {
	if n.pool == nil {
		n.startPool()
	}
	n.pool.wg.Add(len(n.pool.start))
	for _, ch := range n.pool.start {
		ch <- stepJob{phase: phase, cycle: c}
	}
	n.pool.wg.Wait()
}

// computeNode advances node id through cycle c: deliver last cycle's
// latched flits and credits, tick the NI (which streams at most one flit
// into the router's local port) and tick the router. Everything touched
// here is either owned by node id or safe for concurrent use (obs
// counters are atomic, the tracer is locked), so computeNode runs
// concurrently for distinct nodes. The phasesafety analyzer (see
// internal/analysis) checks that nothing reachable from here calls a
// //noc:commit-only function or writes a //noc:committed field.
//
//noc:compute-phase
//noc:hot-path
func (n *Network) computeNode(id int, c sim.Cycle) {
	r, ni := n.routers[id], n.nis[id]
	for _, w := range n.inFlits[id] {
		r.AcceptFlit(router.InFlit{In: topology.Port(w.in), VC: int(w.vc), F: w.f})
	}
	n.inFlits[id] = n.inFlits[id][:0]
	for _, cr := range n.inCredits[id] {
		r.AcceptCredit(core.CreditIn{Out: topology.Port(cr.port), VC: int(cr.vc), VCFree: cr.free})
	}
	n.inCredits[id] = n.inCredits[id][:0]
	for _, cr := range n.inNICredits[id] {
		ni.acceptCredit(router.Credit{In: topology.Port(cr.port), VC: int(cr.vc), VCFree: cr.free})
	}
	n.inNICredits[id] = n.inNICredits[id][:0]

	ni.tick(c)
	r.Tick(c)

	n.stagedFlits[id] = r.TakeOutFlits()
	n.stagedCredits[id] = r.TakeOutCredits()
}

// commit applies the compute phase's staged outputs: first the serial
// local commit (ejections, drops, statistics, link state — everything
// that touches shared state, in canonical node order), then the link
// commit, which writes nothing outside the pulling node's own latches
// and link registers and so shards over the worker pool like the
// compute phase.
//
//noc:commit-only
func (n *Network) commit(c sim.Cycle) {
	n.commitLocal(c)
	if n.workers > 1 {
		n.runPhase(phaseCommitLinks, c)
	} else {
		for id := range n.routers {
			n.commitLinksNode(id)
		}
	}
}

// commitLocal applies, serially in node order, every staged effect that
// touches shared state: packets the routing function declared
// unreachable, and flits arriving at their destination's local port —
// statistics, the ejection into the NI (which can re-enter the network
// through closed-loop traffic replies), and the ejection credit. It also
// validates that no router emitted traffic through a port with no link.
// Flits that die at a dead link are discarded here (discardAtLink), where
// writing the sender's own credit latch is single-writer by construction.
// Every other flit and credit bound for a neighbour is filed into the
// receiver's link registers, and the flit's link state — wormhole mask
// and utilization — is updated here, by the sender, so the receiver's
// pull reads its own registers and nothing of the sender's.
//
//noc:commit-only
func (n *Network) commitLocal(c sim.Cycle) {
	// Only fault-aware tables declare a packet unreachable, and they
	// exist exactly while routes is set: without them TakeDropped would
	// return nothing, so an idle node's router is not touched here.
	dropping := n.routes != nil
	for id := range n.routers {
		if dropping {
			for _, pkt := range n.routers[id].TakeDropped() {
				// Routing declared the destination unreachable; the router
				// drains the buffered flits itself.
				n.stats.RecordDrop(pkt)
				if on := n.obsNodes[id]; on != nil {
					on.DropUnreachable(c, pkt.Dst)
				}
			}
		}
		for _, of := range n.stagedFlits[id] {
			if of.Out != localPort {
				link := id*n.ports + int(of.Out)
				u := int(n.nbr[link])
				if u < 0 {
					panic(fmt.Sprintf("noc: router %d emitted flit through edge port %v", id, of.Out))
				}
				if !n.discardAtLink(id, of, c) {
					n.crossLink(id, link, u, of)
				}
				continue
			}
			n.linkFlits[id][of.Out]++
			if on := n.obsNodes[id]; on != nil {
				on.LinkFlit(int(of.Out), of.DownVC)
			}
			if n.routerDead[id] {
				// A dead node ejects nothing: the packet (necessarily
				// one already inside this router when it died) is
				// discarded, but the router's local output still gets
				// its ejection credit so the pipeline drains.
				if of.F.Kind.IsTail() {
					n.stats.RecordDrop(of.F.Pkt)
					if on := n.obsNodes[id]; on != nil {
						on.DropUnreachable(c, of.F.Pkt.Dst)
					}
				}
			} else {
				n.nis[id].consume(of.F, c)
			}
			// Ejection credit back to this router's local output.
			n.inCredits[id] = append(n.inCredits[id],
				credit{port: uint8(localPort), vc: uint8(of.DownVC), free: of.F.Kind.IsTail()})
		}
		for _, cr := range n.stagedCredits[id] {
			if cr.In == localPort {
				n.inNICredits[id] = append(n.inNICredits[id],
					credit{port: uint8(localPort), vc: uint8(cr.VC), free: cr.VCFree})
				continue
			}
			u := int(n.nbr[id*n.ports+int(cr.In)])
			if u < 0 {
				panic(fmt.Sprintf("noc: router %d emitted credit through edge port %v", id, cr.In))
			}
			p := cr.In.Opposite()
			n.creditReg[u*n.ports+int(p)].add(cr.VC, cr.VCFree)
			n.inbound[u] |= 1 << uint(p)
		}
	}
}

// crossLink files flit of, which router id sends across link (id's index
// id*ports+of.Out) to node u, into u's flit register, and updates the
// link's wormhole mask and utilization: a head marks the downstream VC
// mid-packet (so the packet completes if the link then dies), a tail
// clears it.
//
//noc:commit-only
func (n *Network) crossLink(id, link, u int, of router.OutFlit) {
	bit := uint64(1) << uint(of.DownVC)
	if of.F.Kind.IsHead() {
		n.midFlight[link] |= bit
	}
	if of.F.Kind.IsTail() {
		n.midFlight[link] &^= bit
	}
	n.linkFlits[id][of.Out]++
	if on := n.obsNodes[id]; on != nil {
		on.LinkFlit(int(of.Out), of.DownVC)
	}
	p := of.Out.Opposite()
	reg := &n.flitReg[u*n.ports+int(p)]
	if reg.f != nil {
		panic(fmt.Sprintf("noc: router %d sent two flits through port %v in one cycle", id, of.Out))
	}
	*reg = inFlit{f: of.F, in: uint8(p), vc: uint8(of.DownVC)}
	n.inbound[u] |= 1 << uint(p)
}

// commitLinksNode applies, for destination node u, every link transfer
// arriving at u this cycle: for each port inbound[u] marks, the flit and
// then the credits the local commit filed in u's link registers, in
// ascending port order. It reads and empties only u's registers and
// writes only u's latches, so distinct destination nodes touch disjoint
// state and the phase shards over the worker pool; a node nothing
// crosses into costs one load.
//
//noc:commit-only
//noc:hot-path
func (n *Network) commitLinksNode(u int) {
	m := n.inbound[u]
	if m == 0 {
		return
	}
	n.inbound[u] = 0
	row := u * n.ports
	for ; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		if f := &n.flitReg[row+p]; f.f != nil {
			n.inFlits[u] = append(n.inFlits[u], *f)
			*f = inFlit{}
		}
		cr := &n.creditReg[row+p]
		for vcs := cr.vcs; vcs != 0; vcs &= vcs - 1 {
			v := bits.TrailingZeros64(vcs)
			n.inCredits[u] = append(n.inCredits[u], credit{port: uint8(p), vc: uint8(v), free: cr.free>>uint(v)&1 != 0})
		}
		if cr.last != 0 {
			n.inCredits[u] = append(n.inCredits[u], credit{port: uint8(p), vc: cr.last - 1, free: cr.lastFree})
		}
		*cr = creditRun{}
	}
}

// startPool spawns the persistent phase workers, each owning a fixed
// contiguous shard of nodes so every latch bucket has exactly one writer
// per phase. This is the only sanctioned goroutine spawn in simulation
// code (the determinism analyzer in internal/analysis flags any other).
//
//noc:worker-pool
func (n *Network) startPool() {
	p := &stepPool{start: make([]chan stepJob, n.workers)}
	nodes := len(n.routers)
	lo := 0
	for i := range p.start {
		hi := lo + nodes/n.workers
		if i < nodes%n.workers {
			hi++
		}
		ch := make(chan stepJob, 1)
		p.start[i] = ch
		go func(lo, hi int, ch chan stepJob) {
			for j := range ch {
				switch j.phase {
				case phaseCompute:
					for id := lo; id < hi; id++ {
						n.computeNode(id, j.cycle)
					}
				case phaseCommitLinks:
					for id := lo; id < hi; id++ {
						n.commitLinksNode(id)
					}
				}
				p.wg.Done()
			}
		}(lo, hi, ch)
		lo = hi
	}
	n.pool = p
}

// Close releases the phase worker pool. It is idempotent and safe on a
// serial network; the network itself remains usable — a subsequent Step
// simply restarts the pool. Long-lived drivers that build many parallel
// networks (sweeps, campaigns) should Close each one.
func (n *Network) Close() {
	if n.pool == nil {
		return
	}
	p := n.pool
	n.pool = nil
	p.once.Do(func() {
		for _, ch := range p.start {
			close(ch)
		}
	})
}

// Run advances the network cycles steps.
func (n *Network) Run(cycles sim.Cycle) {
	for i := sim.Cycle(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain keeps stepping (traffic generation continues) until every
// offered packet has been delivered or dropped — and, with
// retransmission enabled, no retransmission is still pending — or the
// cycle limit is reached. It returns true when the network drained.
func (n *Network) Drain(limit sim.Cycle) bool {
	for n.cycle < limit {
		if n.stats.InFlight() == 0 && n.PendingRetx() == 0 {
			return true
		}
		n.Step()
	}
	return n.stats.InFlight() == 0 && n.PendingRetx() == 0
}

// InjectionIdle reports whether every NI has drained its injection
// queues and finished streaming its active packets into the network.
// Two allocators are left on the step path, both per packet: the
// traffic source building what it offers (traffic.Synthetic.Offered
// allocates the packet and the slice it returns it in), and flit
// segmentation when the NI starts injecting the packet. Once the source
// stops offering, an idle injection side means both are over; the
// zero-alloc regression tests use it to find the steady-state
// measurement window.
func (n *Network) InjectionIdle() bool {
	for _, ni := range n.nis {
		if ni.queued > 0 || ni.Sending() {
			return false
		}
	}
	return true
}

// PendingRetx returns the number of unacknowledged packets tracked by
// source retransmission buffers across the network.
func (n *Network) PendingRetx() int {
	if n.retxCfg.Timeout == 0 {
		return 0
	}
	total := 0
	for _, e := range n.retx {
		total += len(e)
	}
	return total
}

// TriggerFlightDump extracts the flight recorder's retained event
// window as a dump tagged with the current cycle, and reports whether a
// recorder is attached. It must run from a serial phase — a cycle hook,
// between steps, or the nocassert failure path — never concurrently
// with a parallel compute phase.
func (n *Network) TriggerFlightDump(reason string) (obs.Dump, bool) {
	o := n.cfg.Router.Obs
	if o == nil {
		return obs.Dump{}, false
	}
	f := o.Flight
	if f == nil {
		return obs.Dump{}, false
	}
	return f.Trigger(n.cycle, reason), true
}

// Functional reports whether every router in the network is functional.
func (n *Network) Functional() bool {
	for _, r := range n.routers {
		if !r.Functional() {
			return false
		}
	}
	return true
}
