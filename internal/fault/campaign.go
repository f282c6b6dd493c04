package fault

import (
	"gonoc/internal/core"
	"gonoc/internal/ftrouters"
	"gonoc/internal/router"
	"gonoc/internal/topology"
)

// CampaignResult summarizes a Monte-Carlo faults-to-failure campaign: the
// one result type of the one trial loop, ftrouters.FaultsToFailureObserved.
type CampaignResult = ftrouters.CampaignResult

// Universe selects which fault sites a campaign draws from.
type Universe int

const (
	// UniverseAll draws from every site of the router, including the VA
	// stage-2 and SA stage-2 arbiters. The router tolerates more of
	// these than the paper's conservative accounting admits, so observed
	// faults-to-failure can exceed the Section VIII-E maximum.
	UniverseAll Universe = iota
	// UniversePaper draws only from the sites the paper's SPF analysis
	// counts: RC units, VA stage-1 arbiter sets, SA stage-1 arbiters and
	// bypasses, and crossbar muxes and secondary paths. (Section VIII
	// explicitly counts crossbar faults instead of SA stage-2 faults and
	// needs no circuitry — hence no countable site — for VA stage 2.)
	UniversePaper
)

// SitesIn returns the fault sites of cfg restricted to universe u.
func SitesIn(cfg router.Config, u Universe) []Site {
	all := Sites(cfg)
	if u == UniverseAll {
		return all
	}
	var out []Site
	for _, s := range all {
		if s.Kind == VA2Arb || s.Kind == SA2Arb {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Proposed presents the paper's router, as cfg describes it, to the
// shared campaign loop as an ftrouters.Design named "Proposed Router": an
// instance is a live core.Router (the centre of a 3x3 mesh) and site i is
// the i-th entry of SitesIn(cfg, u).
func Proposed(cfg router.Config, u Universe) ftrouters.Design {
	return proposed{cfg: cfg, sites: SitesIn(cfg, u)}
}

type proposed struct {
	cfg   router.Config
	sites []Site
}

func (p proposed) Name() string  { return "Proposed Router" }
func (p proposed) NumSites() int { return len(p.sites) }

func (p proposed) NewInstance() ftrouters.Instance {
	return proposedInstance{r: core.MustNew(4, topology.NewMesh(3, 3), p.cfg), sites: p.sites}
}

type proposedInstance struct {
	r     *core.Router
	sites []Site
}

func (pi proposedInstance) Inject(site int)  { Apply(pi.r, pi.sites[site], true) }
func (pi proposedInstance) Functional() bool { return pi.r.Functional() }

// FaultsToFailure runs the faults-to-failure campaign of
// ftrouters.FaultsToFailure on the router cfg describes, drawing faults
// from the sites of universe u.
func FaultsToFailure(cfg router.Config, trials int, seed uint64, u Universe) CampaignResult {
	return FaultsToFailureObserved(cfg, trials, seed, u, nil)
}

// FaultsToFailureObserved is FaultsToFailure with a per-trial progress
// callback (nil to disable): onTrial(done, total) is invoked after each
// trial, so long campaigns can feed a live telemetry gauge. The callback
// does not influence the result — both entry points are deterministic in
// (cfg, trials, seed, u).
func FaultsToFailureObserved(cfg router.Config, trials int, seed uint64, u Universe, onTrial func(done, total int)) CampaignResult {
	return ftrouters.FaultsToFailureObserved(Proposed(cfg, u), trials, seed, onTrial)
}

// TheoreticalBounds returns the paper's analytical (min, max) number of
// faults to cause failure for the protected router: min over stages of
// the stage's minimum, and one plus the sum of tolerated faults. For the
// 5-port, 4-VC router: (2, 28).
func TheoreticalBounds(ports, vcs int) (min, max int) {
	min = 2
	if vcs < 2 {
		min = 1
	}
	tolerated := ports + (vcs-1)*ports + ports + 2
	return min, tolerated + 1
}
