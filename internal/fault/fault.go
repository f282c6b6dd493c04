// Package fault models permanent faults in the router pipeline: it
// enumerates every injectable fault site, runs Monte-Carlo
// faults-to-failure campaigns (the experimental counterpart of the
// paper's Section VIII analysis) and provides the scaled uniform-random
// fault injector used in the latency experiments (Section IX).
package fault

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/router"
	"gonoc/internal/topology"
)

// Kind is the specific component class a fault hits.
type Kind int

// The injectable fault-site kinds of the protected router. The baseline
// router has only the kinds without a correction-circuitry counterpart.
const (
	// RCPrimary is an input port's primary routing-computation unit.
	RCPrimary Kind = iota
	// RCDuplicate is the protected router's spare RC unit.
	RCDuplicate
	// VA1ArbSet is one input VC's complete set of stage-1 VA arbiters.
	VA1ArbSet
	// VA2Arb is one downstream VC's stage-2 VA arbiter.
	VA2Arb
	// SA1Arb is one input port's stage-1 SA arbiter.
	SA1Arb
	// SA1Bypass is the protected router's SA bypass path (mux+register).
	SA1Bypass
	// SA2Arb is one output port's stage-2 SA arbiter.
	SA2Arb
	// XBMux is one output port's primary crossbar multiplexer.
	XBMux
	// XBSecondary is one output's secondary crossbar path (demux + Pk).
	XBSecondary

	// LinkDead is a failed inter-router link. Link faults are
	// network-level: they live outside any single router, so they are
	// injected with ApplyNetwork (not Apply) and are excluded from
	// Sites(). A dead link is bidirectional — both the flit channel and
	// the returning credit channel are severed.
	LinkDead
	// RouterDead is a completely failed router: all four of its mesh
	// links are dead and its NI neither injects nor ejects. Like
	// LinkDead it is network-level and applied with ApplyNetwork.
	RouterDead

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{
		"RC primary", "RC duplicate", "VA1 arbiter set", "VA2 arbiter",
		"SA1 arbiter", "SA1 bypass", "SA2 arbiter", "XB mux", "XB secondary",
		"link dead", "router dead",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Stage returns the pipeline stage a fault kind belongs to.
func (k Kind) Stage() core.StageID {
	switch k {
	case RCPrimary, RCDuplicate:
		return core.StageRC
	case VA1ArbSet, VA2Arb:
		return core.StageVA
	case SA1Arb, SA1Bypass:
		return core.StageSA
	default:
		return core.StageXB
	}
}

// Correction reports whether the site belongs to the correction circuitry
// (and therefore exists only in the protected router).
func (k Kind) Correction() bool {
	switch k {
	case RCDuplicate, SA1Bypass, XBSecondary:
		return true
	}
	return false
}

// Network reports whether the kind is a network-level fault (a dead link
// or router) rather than a site inside one router's pipeline. Network
// kinds are injected with ApplyNetwork, never Apply, and never appear in
// Sites().
func (k Kind) Network() bool { return k == LinkDead || k == RouterDead }

// Site is one injectable fault site in a router.
type Site struct {
	// Kind is the component class.
	Kind Kind
	// Port is the input port (RC/VA1/SA1 kinds) or output port (VA2/SA2/
	// XB kinds) the site belongs to.
	Port topology.Port
	// Index disambiguates within a port: the VC index for VA1ArbSet and
	// VA2Arb, unused otherwise.
	Index int
}

// String implements fmt.Stringer.
func (s Site) String() string {
	switch s.Kind {
	case VA1ArbSet, VA2Arb:
		return fmt.Sprintf("%v %v/vc%d", s.Kind, s.Port, s.Index)
	case RouterDead:
		return s.Kind.String()
	default:
		return fmt.Sprintf("%v %v", s.Kind, s.Port)
	}
}

// Check reports why a router of configuration cfg has no site s, or nil
// when it has one: the port must be one of the router's, the VC index of
// a per-VC kind one of the port's, and a correction-circuitry kind needs
// the protected router. Apply panics on a site that fails this, so every
// path from user input (-inject specs) goes through Check first. The
// network-level kinds always pass; SetLinkFault and SetRouterFault check
// those against the link table.
func (s Site) Check(cfg router.Config) error {
	switch {
	case s.Kind.Network():
		return nil
	case s.Kind < 0 || s.Kind >= numKinds:
		return fmt.Errorf("fault: unknown kind %v", s.Kind)
	case s.Port < 0 || int(s.Port) >= cfg.Ports:
		return fmt.Errorf("fault: %v: port %d outside the router's %d ports", s.Kind, int(s.Port), cfg.Ports)
	case perVC(s.Kind) && (s.Index < 0 || s.Index >= cfg.VCs):
		return fmt.Errorf("fault: %v: VC index %d outside the port's %d VCs", s, s.Index, cfg.VCs)
	case s.Kind.Correction() && !cfg.FaultTolerant:
		return fmt.Errorf("fault: %v: the baseline router has no correction circuitry (needs the protected router)", s)
	}
	return nil
}

// Sites enumerates every fault site of a router with configuration cfg.
// For the paper's protected 5-port, 4-VC router this yields 75 sites; the
// baseline router (FaultTolerant false) has the 55 non-correction sites.
func Sites(cfg router.Config) []Site {
	var out []Site
	for p := 0; p < cfg.Ports; p++ {
		port := topology.Port(p)
		out = append(out, Site{Kind: RCPrimary, Port: port})
		if cfg.FaultTolerant {
			out = append(out, Site{Kind: RCDuplicate, Port: port})
		}
		for v := 0; v < cfg.VCs; v++ {
			out = append(out, Site{Kind: VA1ArbSet, Port: port, Index: v})
			out = append(out, Site{Kind: VA2Arb, Port: port, Index: v})
		}
		out = append(out, Site{Kind: SA1Arb, Port: port})
		if cfg.FaultTolerant {
			out = append(out, Site{Kind: SA1Bypass, Port: port})
		}
		out = append(out, Site{Kind: SA2Arb, Port: port})
		out = append(out, Site{Kind: XBMux, Port: port})
		if cfg.FaultTolerant {
			out = append(out, Site{Kind: XBSecondary, Port: port})
		}
	}
	return out
}

// Apply injects (or with value false, repairs) the fault at site s in
// router r. Network-level kinds (LinkDead, RouterDead) cannot be applied
// to a single router and panic; use ApplyNetwork for those.
func Apply(r *core.Router, s Site, value bool) {
	switch s.Kind {
	case LinkDead, RouterDead:
		panic(fmt.Sprintf("fault: %v is a network-level fault; use ApplyNetwork", s.Kind))
	}
	switch s.Kind {
	case RCPrimary:
		r.SetRCFault(s.Port, 0, value)
	case RCDuplicate:
		r.SetRCFault(s.Port, 1, value)
	case VA1ArbSet:
		r.SetVA1Fault(s.Port, s.Index, value)
	case VA2Arb:
		r.SetVA2Fault(s.Port, s.Index, value)
	case SA1Arb:
		r.SetSA1Fault(s.Port, value)
	case SA1Bypass:
		r.SetSA1BypassFault(s.Port, value)
	case SA2Arb:
		r.SetSA2Fault(s.Port, value)
	case XBMux:
		r.SetXBFault(s.Port, value)
	case XBSecondary:
		r.SetXBSecondaryFault(s.Port, value)
	default:
		panic(fmt.Sprintf("fault: unknown kind %v", s.Kind))
	}
}
