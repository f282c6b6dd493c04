package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kind identifies one class of observable quantity. Each Kind belongs to
// a fixed pipeline stage (or the link/NI/fault layer) via Stage().
type Kind uint8

// The counter and gauge kinds collected by the instrumentation.
const (
	// KRCComputes counts routing computations completed, per input port.
	KRCComputes Kind = iota
	// KRCDuplicateUses counts computations served by the duplicate RC
	// unit because the primary is faulty (Section V-A).
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
	// KNIRetxTimeouts counts retransmission-timer expirations at the NI.
	KNIRetxTimeouts
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

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{
		"rc.computes", "rc.duplicate_uses",
		"va.allocs", "va.borrows", "va.borrow_stalls", "va.retries",
		"sa.grants", "sa.bypass_grants", "sa.transfers",
		"xb.flits_routed", "xb.secondary",
		"link.flits",
		"ni.flits_sent", "ni.packets_offered", "ni.packets_ejected", "ni.queue_depth",
		"fault.injected", "fault.transient", "fault.recovered", "fault.detected",
		"rc.reroutes", "link.drops", "ni.drops_unreachable",
		"ni.retransmits", "ni.retx_timeouts", "ni.dups_suppressed",
		"stall.credit_starved", "stall.arb_lost", "stall.route_blocked",
		"stall.fault_drain",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "kind.unknown"
}

// Stage returns the pipeline stage (or pseudo-stage) the kind belongs to.
func (k Kind) Stage() Stage {
	switch k {
	case KRCComputes, KRCDuplicateUses, KReroutes:
		return StageRC
	case KVAAllocs, KVA1Borrows, KVA1BorrowStalls, KVA2Retries:
		return StageVA
	case KSAGrants, KSABypassGrants, KSATransfers:
		return StageSA
	case KFlitsRouted, KXBSecondary:
		return StageXB
	case KLinkFlits, KLinkDrops:
		return StageLink
	case KNIFlitsSent, KNIPacketsOffered, KNIPacketsEjected, KNIQueueDepth,
		KDropsUnreachable, KNIRetransmits, KNIRetxTimeouts, KNIDupsSuppressed:
		return StageNI
	case KStallCreditStarved, KStallArbLost, KStallRouteBlocked, KStallFaultDrain:
		return StageStall
	default:
		return StageFault
	}
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

// Metrics is the registry: a lazily populated map from Key to counter or
// gauge. Handle resolution (Counter/Gauge) takes a lock and may allocate;
// instrumented hot paths therefore resolve their handles once at
// attach time (see RouterObs / NodeObs) and only touch atomics per event.
// A nil *Metrics is never dereferenced by the instrumentation layer: the
// simulator holds a nil Observer when observability is off, making the
// disabled path a single pointer test.
type Metrics struct {
	mu       sync.Mutex
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

// Counter returns the counter at k, creating it if needed.
func (m *Metrics) Counter(k Key) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
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

// Snapshot returns every registered series, sorted by (router, kind,
// port, VC) for stable output.
func (m *Metrics) Snapshot() []Sample {
	m.mu.Lock()
	out := make([]Sample, 0, len(m.counters)+len(m.gauges))
	for k, c := range m.counters {
		out = append(out, Sample{Key: k, Value: int64(c.Value())})
	}
	for k, g := range m.gauges {
		out = append(out, Sample{Key: k, Value: g.Value(), IsGauge: true})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
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
	})
	return out
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
	acc := map[int32]*RouterTotals{}
	for k, c := range m.counters {
		t := acc[k.Router]
		if t == nil {
			t = &RouterTotals{Router: int(k.Router)}
			acc[k.Router] = t
		}
		t.Total[k.Kind] += c.Value()
	}
	m.mu.Unlock()
	out := make([]RouterTotals, 0, len(acc))
	for _, t := range acc {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Router < out[j].Router })
	return out
}
