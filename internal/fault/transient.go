package fault

import (
	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
)

// IsFaulty reports whether site s of router r is currently faulty. It is
// the read counterpart of Apply.
func IsFaulty(r *core.Router, s Site) bool {
	switch s.Kind {
	case RCPrimary:
		return r.RCFault(s.Port, 0)
	case RCDuplicate:
		return r.RCFault(s.Port, 1)
	case VA1ArbSet:
		return r.VA1Fault(s.Port, s.Index)
	case VA2Arb:
		return r.VA2Fault(s.Port, s.Index)
	case SA1Arb:
		return r.SA1Fault(s.Port)
	case SA1Bypass:
		return r.SA1BypassFault(s.Port)
	case SA2Arb:
		return r.SA2Fault(s.Port)
	case XBMux:
		return r.XBFault(s.Port)
	case XBSecondary:
		return r.XBSecondaryFault(s.Port)
	}
	return false
}

// TransientInjector injects transient faults: a randomly chosen component
// becomes unusable for a short window (Duration cycles) and then recovers
// — the paper's second fault category (Section I: cosmic rays, alpha
// particles, process variation), which typically upsets a circuit "in
// the order of one clock cycle".
//
// The protected router masks transients the same way it masks permanent
// faults: work is routed around the component while it is unusable. The
// injector never touches a site that is already faulty (e.g. one held by
// a permanent Injector on the same network), so the two can be combined.
type TransientInjector struct {
	net *noc.Network
	r   *rng.Stream
	obs *obs.Observer

	// Rate is the probability per cycle per router of a transient strike.
	Rate float64
	// Duration is how long a struck component stays unusable.
	Duration sim.Cycle

	sites  []Site
	active []transient
	// Strikes counts injected transients; Masked counts those that
	// expired without breaking the router.
	Strikes uint64
}

type transient struct {
	router  int
	site    Site
	expires sim.Cycle
}

// NewTransientInjector attaches a transient injector to net. rate is the
// per-router per-cycle strike probability; duration the outage length.
func NewTransientInjector(net *noc.Network, rate float64, duration sim.Cycle, seed uint64) *TransientInjector {
	ti := &TransientInjector{
		net:      net,
		r:        rng.New(seed),
		obs:      net.Obs(),
		Rate:     rate,
		Duration: duration,
		sites:    Sites(net.Router(0).Config()),
	}
	net.AddHook(ti.hook)
	return ti
}

// hook expires old transients and injects new ones.
func (ti *TransientInjector) hook(c sim.Cycle) {
	// Expire.
	kept := ti.active[:0]
	for _, t := range ti.active {
		if c >= t.expires {
			Apply(ti.net.Router(t.router), t.site, false)
			ti.obs.RecordFault(obs.KFaultsRecovered, obs.EvFaultRecover,
				c, t.router, int(t.site.Port), t.site.VC(), 0, t.site.String())
			continue
		}
		kept = append(kept, t)
	}
	ti.active = kept

	// Strike.
	for node := 0; node < ti.net.Topo().Nodes(); node++ {
		if !ti.r.Bernoulli(ti.Rate) {
			continue
		}
		rt := ti.net.Router(node)
		s := ti.sites[ti.r.Intn(len(ti.sites))]
		if IsFaulty(rt, s) {
			continue // already faulty (possibly permanently); leave it alone
		}
		Apply(rt, s, true)
		ti.active = append(ti.active, transient{router: node, site: s, expires: c + ti.Duration})
		ti.Strikes++
		ti.obs.RecordFault(obs.KFaultsTransient, obs.EvFaultTransient,
			c, node, int(s.Port), s.VC(), int32(ti.Duration), s.String())
	}
}

// Active returns the number of currently outstanding transient outages.
func (ti *TransientInjector) Active() int { return len(ti.active) }
