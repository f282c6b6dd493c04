package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind identifies one class of observable quantity. Each Kind belongs to
// a fixed pipeline stage (or the link/NI/fault layer) via Stage().
type Kind uint8

// The counter and gauge kinds collected by the instrumentation.
const (
	// KRCComputes counts routing computations completed, per input port:
	// those that yield a route. A computation that finds the destination
	// cut off drops the packet and is not counted.
	KRCComputes Kind = iota
	// KRCDuplicateUses counts computations served by the duplicate RC
	// unit because the primary is faulty (Section V-A), per input port,
	// as KRCComputes does: a duplicate computation that ends in a drop is
	// not counted.
	KRCDuplicateUses
	// KVAAllocs counts successful downstream-VC allocations, per input
	// port of the winning VC.
	KVAAllocs
	// KVA1Borrows counts successful stage-1 arbiter borrows
	// (Section V-B1), per input port.
	KVA1Borrows
	// KVA1BorrowStalls counts cycles a VC wanted to borrow but found no
	// idle lender (Scenario 2 waits), per input port.
	KVA1BorrowStalls
	// KVA2Retries counts allocation attempts lost to a faulty stage-2
	// arbiter (Section V-B3), per output port.
	KVA2Retries
	// KSAGrants counts stage-2 switch-allocation wins, per input port.
	KSAGrants
	// KSABypassGrants counts stage-1 grants issued by the bypass path's
	// default winner (Section V-C1), per input port.
	KSABypassGrants
	// KSATransfers counts VC-to-VC flit/state transfers feeding the
	// bypass default winner, per input port.
	KSATransfers
	// KFlitsRouted counts flits that traversed the crossbar, per output
	// port.
	KFlitsRouted
	// KXBSecondary counts crossbar traversals through the secondary path
	// (Sections V-C2, V-D), per output port.
	KXBSecondary
	// KLinkFlits counts flits carried by the outgoing link, per output
	// port (Local counts ejections to the NI).
	KLinkFlits
	// KNIFlitsSent counts flits the NI streamed into the router's local
	// input port.
	KNIFlitsSent
	// KNIPacketsOffered counts packets offered to the NI for injection.
	KNIPacketsOffered
	// KNIPacketsEjected counts packets delivered at this node.
	KNIPacketsEjected
	// KNIQueueDepth is a gauge: packets waiting at the NI for a free VC.
	KNIQueueDepth
	// KFaultsInjected counts permanent faults injected into the router.
	KFaultsInjected
	// KFaultsTransient counts transient strikes on the router.
	KFaultsTransient
	// KFaultsRecovered counts transient outages that expired.
	KFaultsRecovered
	// KFaultsDetected counts watchdog fault detections at the router.
	KFaultsDetected
	// KReroutes counts routing computations that diverged from XY to
	// detour around a dead link or router, per input port.
	KReroutes
	// KLinkDrops counts packets discarded at a dead outgoing link, per
	// output port.
	KLinkDrops
	// KDropsUnreachable counts packets dropped because no path to their
	// destination survives the fault set (at the NI before injection, or
	// in-network when routing hits a wall).
	KDropsUnreachable
	// KNIRetransmits counts packet retransmissions issued by the NI's
	// end-to-end reliability layer.
	KNIRetransmits
	// KNIDupsSuppressed counts duplicate deliveries suppressed at the
	// sink NI.
	KNIDupsSuppressed
	// KStallCreditStarved counts non-advancing flit-cycles waiting on a
	// free downstream VC or downstream credit, per input port and VC.
	// The four stall kinds below must stay contiguous and in StallKind
	// order: StallKind.Kind converts with an offset from this constant.
	KStallCreditStarved
	// KStallArbLost counts non-advancing flit-cycles lost to arbitration
	// (the per-port RC round-robin, VA, or SA), per input port and VC.
	KStallArbLost
	// KStallRouteBlocked counts non-advancing flit-cycles attributed to a
	// fault detour: the packet left the baseline XY path, rides the
	// secondary crossbar path, or has no usable output path at all — per
	// input port and VC.
	KStallRouteBlocked
	// KStallFaultDrain counts flit-cycles of Dropping VCs draining a
	// packet discarded because network faults cut its destination off,
	// per input port and VC.
	KStallFaultDrain

	numKinds
)

// NumKinds is the number of defined Kinds, for table building.
const NumKinds = int(numKinds)

// kinds holds one row per Kind: the stable exported name (metric
// tables, Prometheus families) and the stage it is grouped under.
// TestKindTables holds every row to a distinct name whose prefix
// matches its stage.
var kinds = [NumKinds]struct {
	name  string
	stage Stage
}{
	KRCComputes:         {"rc.computes", StageRC},
	KRCDuplicateUses:    {"rc.duplicate_uses", StageRC},
	KVAAllocs:           {"va.allocs", StageVA},
	KVA1Borrows:         {"va.borrows", StageVA},
	KVA1BorrowStalls:    {"va.borrow_stalls", StageVA},
	KVA2Retries:         {"va.retries", StageVA},
	KSAGrants:           {"sa.grants", StageSA},
	KSABypassGrants:     {"sa.bypass_grants", StageSA},
	KSATransfers:        {"sa.transfers", StageSA},
	KFlitsRouted:        {"xb.flits_routed", StageXB},
	KXBSecondary:        {"xb.secondary", StageXB},
	KLinkFlits:          {"link.flits", StageLink},
	KNIFlitsSent:        {"ni.flits_sent", StageNI},
	KNIPacketsOffered:   {"ni.packets_offered", StageNI},
	KNIPacketsEjected:   {"ni.packets_ejected", StageNI},
	KNIQueueDepth:       {"ni.queue_depth", StageNI},
	KFaultsInjected:     {"fault.injected", StageFault},
	KFaultsTransient:    {"fault.transient", StageFault},
	KFaultsRecovered:    {"fault.recovered", StageFault},
	KFaultsDetected:     {"fault.detected", StageFault},
	KReroutes:           {"rc.reroutes", StageRC},
	KLinkDrops:          {"link.drops", StageLink},
	KDropsUnreachable:   {"ni.drops_unreachable", StageNI},
	KNIRetransmits:      {"ni.retransmits", StageNI},
	KNIDupsSuppressed:   {"ni.dups_suppressed", StageNI},
	KStallCreditStarved: {"stall.credit_starved", StageStall},
	KStallArbLost:       {"stall.arb_lost", StageStall},
	KStallRouteBlocked:  {"stall.route_blocked", StageStall},
	KStallFaultDrain:    {"stall.fault_drain", StageStall},
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < numKinds {
		return kinds[k].name
	}
	return "kind.unknown"
}

// Stage returns the pipeline stage (or pseudo-stage) the kind belongs to.
func (k Kind) Stage() Stage {
	if k < numKinds {
		return kinds[k].stage
	}
	return StageFault
}

// Stage is a pipeline stage or pseudo-stage used to group metrics and
// trace events. The first four values match core.StageID by construction
// so the fault model can convert with a plain cast.
type Stage int8

// The router pipeline stages plus the link, NI, fault and stall
// pseudo-stages.
const (
	StageRC Stage = iota
	StageVA
	StageSA
	StageXB
	StageLink
	StageNI
	StageFault
	StageStall
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	names := [...]string{"RC", "VA", "SA", "XB", "link", "NI", "fault", "stall"}
	if int(s) >= 0 && int(s) < len(names) {
		return names[s]
	}
	return "?"
}

// Key locates one counter or gauge in the registry: the owning router,
// the component port and VC within it (NoPort / NoVC when the dimension
// does not apply) and the Kind measured.
type Key struct {
	// Kind is the measured quantity.
	Kind Kind
	// Router is the node id of the owning router, or -1 for
	// network-global series.
	Router int32
	// Port is the input or output port index (Kind-dependent), or NoPort.
	Port int8
	// VC is the virtual-channel index, or NoVC.
	VC int8
}

// NoPort and NoVC mark a Key dimension as not applicable.
const (
	NoPort int8 = -1
	NoVC   int8 = -1
)

// Counter is a monotonic counter. Increments are atomic, so concurrent
// simulations sharing a registry (e.g. internal/sweep fan-out) stay
// race-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, occupancy).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Metrics is the registry. The series a bound router and node own — the
// bulk of any registry: 157 per node at the default 5 ports and 4 VCs —
// live in one contiguous counter block per router (see block) that the
// RouterObs / NodeObs handles index directly; everything else (the fault
// kinds, network-global series, ad-hoc keys) sits in a lazily populated
// map. Handle resolution (Counter/Gauge) takes a lock and may allocate;
// instrumented hot paths never call it, they hold their block and only
// touch atomics per event. A nil *Metrics is never dereferenced by the
// instrumentation layer: the simulator holds a nil Observer when
// observability is off, making the disabled path a single pointer test.
type Metrics struct {
	mu       sync.Mutex
	blocks   []*block // indexed by router id; nil where nothing is bound
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[Key]*Counter{},
		gauges:   map[Key]*Gauge{},
	}
}

// The block layout. A router's block holds every series its two handles
// own, grouped by how often an event writes them, each group laid out
// kind by kind (one row per kind):
//
//	hot port rows:  slot*ports + p                    slot < numHotSlots
//	node row:       numHotSlots*ports + slot          one per nodeKinds entry
//	stall rows:     nodeEnd + (k*ports + p)*vcs + v   StallKind k of input VC (p, v)
//	cold port rows: stallEnd + (slot-numHotSlots)*ports + p
//
// The hot rows are what one flit writes on every hop, whatever port it
// takes: the crossbar traversal and the link flit at its output port, the
// SA grant at its input port, and for a head the RC and VA of its input
// port. With the node row behind them they take the block's first 248
// bytes at 5 ports, so a node's per-flit counters are four cache lines,
// and the XB, link and SA counters of a body flit's hop two of them. XB
// leads because the link flit is counted in the serial commit, after
// every node's compute phase: at the first three output ports it lands on
// the line the traversal wrote in this node's compute phase. The stall
// rows follow, credit-starved first (by far the most frequent class),
// then the kinds an event writes only under faults or bypass. The
// queue-depth gauge sits beside the counters in the block struct.
const (
	slotFlitsRouted = iota
	slotLinkFlits
	slotSAGrants
	slotRCComputes
	slotVAAllocs
	numHotSlots
)

const (
	slotRCDuplicateUses = numHotSlots + iota
	slotVA1Borrows
	slotVA1BorrowStalls
	slotVA2Retries
	slotSABypassGrants
	slotSATransfers
	slotReroutes
	slotXBSecondary
	slotLinkDrops
	numPortSlots
)

const (
	slotNIFlitsSent = iota
	slotNIPacketsOffered
	slotNIPacketsEjected
	slotDropsUnreachable
	slotNIRetransmits
	slotNIDupsSuppressed
	numNodeSlots
)

// portKinds and nodeKinds name the Kind stored at each slot.
var (
	portKinds = [numPortSlots]Kind{
		KFlitsRouted, KLinkFlits, KSAGrants, KRCComputes, KVAAllocs,
		KRCDuplicateUses, KVA1Borrows, KVA1BorrowStalls, KVA2Retries,
		KSABypassGrants, KSATransfers, KReroutes, KXBSecondary, KLinkDrops,
	}
	nodeKinds = [numNodeSlots]Kind{
		KNIFlitsSent, KNIPacketsOffered, KNIPacketsEjected, KDropsUnreachable,
		KNIRetransmits, KNIDupsSuppressed,
	}
)

// shape is a block's geometry; its methods are the layout above, shared
// by the handles' lanes and the registry's reads.
type shape struct{ ports, vcs int }

// size returns the number of counters in a block of this shape.
func (s shape) size() int {
	return numPortSlots*s.ports + numNodeSlots + NumStallKinds*s.ports*s.vcs
}

// port returns the index of port p's counter at slot.
func (s shape) port(p, slot int) int {
	if slot < numHotSlots {
		return slot*s.ports + p
	}
	return numNodeSlots + (slot+NumStallKinds*s.vcs)*s.ports + p
}

// node returns the index of the node-scalar counter at slot.
func (s shape) node(slot int) int { return numHotSlots*s.ports + slot }

// stall returns the index of the class-k stall counter of input VC (p, v).
func (s shape) stall(p, v int, k StallKind) int {
	return numHotSlots*s.ports + numNodeSlots + (int(k)*s.ports+p)*s.vcs + v
}

// dimension says which Key dimensions a block-resident Kind carries.
type dimension uint8

const (
	dimNone  dimension = iota // not in any block: the registry's map holds it
	dimPort                   // (port, NoVC)
	dimStall                  // (port, vc)
	dimNode                   // (NoPort, NoVC)
	dimGauge                  // (NoPort, NoVC), the queue-depth gauge
)

// kindDim and kindSlot give every Kind's dimension and its slot within
// it, derived once from portKinds and nodeKinds.
var kindDim, kindSlot = func() (d [NumKinds]dimension, s [NumKinds]int) {
	for slot, k := range portKinds {
		d[k], s[k] = dimPort, slot
	}
	for slot, k := range nodeKinds {
		d[k], s[k] = dimNode, slot
	}
	for k := 0; k < NumStallKinds; k++ {
		d[StallKind(k).Kind()], s[StallKind(k).Kind()] = dimStall, k
	}
	d[KNIQueueDepth] = dimGauge
	return d, s
}()

// nodeSide reports whether BindNode owns the block series of kind k (the
// link and NI stages); BindRouter owns the rest.
func nodeSide(k Kind) bool { return kinds[k].stage == StageLink || kinds[k].stage == StageNI }

// block is one router's counters: every series BindRouter and BindNode
// own for it, contiguous, in the layout above. Counters stay atomic —
// concurrently stepping networks bound to one registry sum into the same
// block, and a live scrape reads it mid-step.
type block struct {
	shape
	// routerBound and nodeBound record which handle kinds were bound, so
	// Snapshot lists only the series a binding created, zero rows included.
	routerBound, nodeBound bool
	c                      []Counter
	queue                  Gauge
}

func newBlock(ports, vcs int) *block {
	s := shape{ports, vcs}
	return &block{shape: s, c: make([]Counter, s.size())}
}

// index returns the position in b.c of counter key k, ok=false when k
// lies outside the block's layout (or is the gauge).
func (b *block) index(k Key) (i int, ok bool) {
	if int(k.Kind) >= NumKinds {
		return 0, false
	}
	port, v := int(k.Port), int(k.VC)
	inPort := port >= 0 && port < b.ports
	switch kindDim[k.Kind] {
	case dimPort:
		if inPort && k.VC == NoVC {
			return b.port(port, kindSlot[k.Kind]), true
		}
	case dimStall:
		if inPort && v >= 0 && v < b.vcs {
			return b.stall(port, v, StallKind(kindSlot[k.Kind])), true
		}
	case dimNode:
		return b.node(kindSlot[k.Kind]), k.Port == NoPort && k.VC == NoVC
	}
	return 0, false
}

// bind returns router's block, creating it on first use, and marks the
// router or node side bound. A second network bound to the same registry
// gets the same block; binding one router in two shapes is a caller bug
// (Observer.Attach reports it as an error beforehand).
func (m *Metrics) bind(router, ports, vcs int, node bool) *block {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.blocks) <= router {
		m.blocks = append(m.blocks, nil)
	}
	b := m.blocks[router]
	if b == nil {
		b = newBlock(ports, vcs)
		m.blocks[router] = b
	} else if b.ports != ports || b.vcs != vcs {
		panic(fmt.Sprintf("obs: router %d bound with %d ports, %d VCs to a registry that holds it with %d ports, %d VCs",
			router, ports, vcs, b.ports, b.vcs))
	}
	if node {
		b.nodeBound = true
	} else {
		b.routerBound = true
	}
	return b
}

// blockOf returns the block holding router's series, or nil. The caller
// holds m.mu.
func (m *Metrics) blockOf(router int32) *block {
	if router < 0 || int(router) >= len(m.blocks) {
		return nil
	}
	return m.blocks[router]
}

// Counter returns the counter at k, creating it if needed. A key inside
// a bound router's block resolves to the block's counter; resolve such
// keys after binding.
func (m *Metrics) Counter(k Key) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b := m.blockOf(k.Router); b != nil {
		if i, ok := b.index(k); ok {
			return &b.c[i]
		}
	}
	c := m.counters[k]
	if c == nil {
		c = &Counter{}
		m.counters[k] = c
	}
	return c
}

// Gauge returns the gauge at k, creating it if needed.
func (m *Metrics) Gauge(k Key) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b := m.blockOf(k.Router); b != nil && k.Kind == KNIQueueDepth && k.Port == NoPort && k.VC == NoVC {
		return &b.queue
	}
	g := m.gauges[k]
	if g == nil {
		g = &Gauge{}
		m.gauges[k] = g
	}
	return g
}

// Sample is one registry entry at snapshot time.
type Sample struct {
	// Key locates the series.
	Key Key
	// Value is the counter count or gauge level.
	Value int64
	// IsGauge distinguishes gauges from counters.
	IsGauge bool
}

// keyLess is the registry's series order: (router, kind, port, VC).
func keyLess(a, b Key) bool {
	if a.Router != b.Router {
		return a.Router < b.Router
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.VC < b.VC
}

// each calls fn for every series b holds for router, in keyLess order.
func (b *block) each(router int32, fn func(Sample)) {
	for k := Kind(0); k < numKinds; k++ {
		bound := b.routerBound
		if nodeSide(k) {
			bound = b.nodeBound
		}
		if !bound {
			continue
		}
		key := Key{Kind: k, Router: router, Port: NoPort, VC: NoVC}
		counter := func() {
			i, _ := b.index(key)
			fn(Sample{Key: key, Value: int64(b.c[i].Value())})
		}
		switch kindDim[k] {
		case dimGauge:
			fn(Sample{Key: key, Value: b.queue.Value(), IsGauge: true})
		case dimNode:
			counter()
		case dimPort:
			for p := 0; p < b.ports; p++ {
				key.Port = int8(p)
				counter()
			}
		case dimStall:
			for p := 0; p < b.ports; p++ {
				for v := 0; v < b.vcs; v++ {
					key.Port, key.VC = int8(p), int8(v)
					counter()
				}
			}
		}
	}
}

// Snapshot returns every registered series, sorted by (router, kind,
// port, VC) for stable output.
func (m *Metrics) Snapshot() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	loose := make([]Sample, 0, len(m.counters)+len(m.gauges))
	for k, c := range m.counters {
		loose = append(loose, Sample{Key: k, Value: int64(c.Value())})
	}
	for k, g := range m.gauges {
		loose = append(loose, Sample{Key: k, Value: g.Value(), IsGauge: true})
	}
	sort.Slice(loose, func(i, j int) bool { return keyLess(loose[i].Key, loose[j].Key) })

	// The blocks enumerate in series order already; the few map-held
	// series merge into that stream.
	n := len(loose)
	for _, b := range m.blocks {
		if b != nil {
			n += len(b.c) + 1
		}
	}
	out := make([]Sample, 0, n)
	for id, b := range m.blocks {
		if b == nil {
			continue
		}
		b.each(int32(id), func(s Sample) {
			for len(loose) > 0 && keyLess(loose[0].Key, s.Key) {
				out, loose = append(out, loose[0]), loose[1:]
			}
			out = append(out, s)
		})
	}
	return append(out, loose...)
}

// RouterTotals is one router's counters summed over ports and VCs.
type RouterTotals struct {
	// Router is the node id.
	Router int
	// Total is indexed by Kind.
	Total [NumKinds]uint64
}

// PerRouter aggregates every counter by router, summing over the port and
// VC dimensions, sorted by router id. Gauges are not included.
func (m *Metrics) PerRouter() []RouterTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]RouterTotals, len(m.blocks))
	for id, b := range m.blocks {
		if b != nil {
			rows[id].Router = id
			b.addTotals(&rows[id].Total)
		}
	}
	// The map holds the fault kinds of bound routers, mostly; a series
	// of any other router (network-global ones, router -1) gets a row of
	// its own.
	var loose map[int32]*RouterTotals
	for k, c := range m.counters {
		if b := m.blockOf(k.Router); b != nil {
			rows[k.Router].Total[k.Kind] += c.Value()
			continue
		}
		t := loose[k.Router]
		if t == nil {
			if loose == nil {
				loose = map[int32]*RouterTotals{}
			}
			t = &RouterTotals{Router: int(k.Router)}
			loose[k.Router] = t
		}
		t.Total[k.Kind] += c.Value()
	}
	out := rows[:0]
	for id, b := range m.blocks {
		if b != nil {
			out = append(out, rows[id])
		}
	}
	if loose == nil {
		return out
	}
	for _, t := range loose {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Router < out[j].Router })
	return out
}

// addTotals adds every counter b holds to t, summed over ports and VCs,
// save the series of a side (router or node) no handle bound, as each
// leaves them out.
func (b *block) addTotals(t *[NumKinds]uint64) {
	b.each(0, func(s Sample) {
		if !s.IsGauge {
			t[s.Key.Kind] += uint64(s.Value)
		}
	})
}
