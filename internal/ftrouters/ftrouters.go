// Package ftrouters models the fault-tolerant router designs the paper
// compares against in Section VIII (Table III): BulletProof
// (Constantinides et al., HPCA 2006), Vicis (Fick et al., DAC 2009) and
// RoCo (Kim et al., ISCA 2006), alongside the proposed router.
//
// Each design is modelled at the granularity its fault-tolerance
// mechanism operates on — redundant module groups for BulletProof's NMR,
// per-unit ECC plus a crossbar bypass bus for Vicis, row/column halves
// for RoCo — with a Functional predicate mirroring the published failure
// condition. Site counts are calibrated so that Monte-Carlo
// faults-to-failure reproduces each design's published Table III number
// (3.15, 9.3 and 5.5 faults respectively); the original numbers come from
// those papers' own fault-injection experiments, which we cannot rerun,
// so the calibration target is the published mean itself.
package ftrouters

import (
	"math"

	"gonoc/internal/rng"
	"gonoc/internal/stats"
)

// Design describes one fault-tolerant router design for campaign
// purposes. The proposed router itself is one too (internal/fault wraps a
// live core.Router), so every design runs through the one trial loop
// below.
type Design interface {
	// Name returns the design's name as used in Table III.
	Name() string
	// NumSites returns the number of distinct injectable fault sites.
	NumSites() int
	// NewInstance returns a fresh, fault-free instance.
	NewInstance() Instance
}

// Instance is one copy of a design accumulating faults.
type Instance interface {
	// Inject makes site faulty (idempotent).
	Inject(site int)
	// Functional reports whether the design still routes packets.
	Functional() bool
}

// CampaignResult summarizes a Monte-Carlo faults-to-failure campaign over
// a Design.
type CampaignResult struct {
	// Design is the design's Name.
	Design string
	// Trials is the number of independent fault sequences evaluated.
	Trials int
	// Mean is the average number of faults injected before the design
	// first became non-functional (the fault that kills it included).
	Mean float64
	// Min and Max are the observed extremes.
	Min, Max int
	// StdDev is the population standard deviation of the per-trial
	// fault counts.
	StdDev float64
	// P50, P95 and P99 are nearest-rank percentiles of the per-trial
	// fault counts.
	P50, P95, P99 int
}

// FaultsToFailure runs a Monte-Carlo campaign: in each trial a fresh
// instance accumulates uniformly ordered random faults until Functional
// first reports failure; the number of faults injected (inclusive) is the
// trial's outcome. This is the experimental methodology BulletProof and
// Vicis used for their Table III numbers.
func FaultsToFailure(d Design, trials int, seed uint64) CampaignResult {
	return FaultsToFailureObserved(d, trials, seed, nil)
}

// FaultsToFailureObserved is FaultsToFailure with a per-trial progress
// callback (nil to disable): onTrial(done, total) runs after each trial,
// for live campaign telemetry. The callback does not influence the
// result — both entry points are deterministic in (d, trials, seed).
func FaultsToFailureObserved(d Design, trials int, seed uint64, onTrial func(done, total int)) CampaignResult {
	r := rng.New(seed)
	res := CampaignResult{Design: d.Name(), Trials: trials, Min: math.MaxInt}
	counts := make([]int, 0, trials)
	var sum, sumSq float64
	for t := 0; t < trials; t++ {
		inst := d.NewInstance()
		order := r.Perm(d.NumSites())
		count := 0
		for _, s := range order {
			inst.Inject(s)
			count++
			if !inst.Functional() {
				break
			}
		}
		sum += float64(count)
		sumSq += float64(count) * float64(count)
		counts = append(counts, count)
		if count < res.Min {
			res.Min = count
		}
		if count > res.Max {
			res.Max = count
		}
		if onTrial != nil {
			onTrial(t+1, trials)
		}
	}
	res.Mean = sum / float64(trials)
	if variance := sumSq/float64(trials) - res.Mean*res.Mean; variance > 0 {
		res.StdDev = math.Sqrt(variance)
	}
	res.P50 = stats.IntPercentile(counts, 50)
	res.P95 = stats.IntPercentile(counts, 95)
	res.P99 = stats.IntPercentile(counts, 99)
	return res
}

// --- BulletProof ---

// BulletProof models the NMR-based defect-tolerant switch: the router is
// decomposed into module groups, each backed by a redundant copy; the
// switch fails when both copies of any group are defective. We use the
// design point the paper compares against (≈52% area overhead), whose
// published mean faults-to-failure is 3.15 — reproduced by three
// dual-redundant groups.
type BulletProof struct {
	// Groups is the number of dual-redundant module groups.
	Groups int
}

// NewBulletProof returns the Table III design point.
func NewBulletProof() *BulletProof { return &BulletProof{Groups: 3} }

// Name implements Design.
func (b *BulletProof) Name() string { return "BulletProof" }

// NumSites implements Design: two copies per group.
func (b *BulletProof) NumSites() int { return 2 * b.Groups }

// NewInstance implements Design.
func (b *BulletProof) NewInstance() Instance {
	return &pairInstance{pairs: b.Groups, hits: make([]int, b.Groups)}
}

// pairInstance fails when any pair accumulates two faults.
type pairInstance struct {
	pairs int
	hits  []int
}

func (p *pairInstance) Inject(site int) { p.hits[site%p.pairs]++ }

func (p *pairInstance) Functional() bool {
	for _, h := range p.hits {
		if h >= 2 {
			return false
		}
	}
	return true
}

// --- Vicis ---

// Vicis models the DAC 2009 design: fine-grained ECC on the datapath
// units (each unit corrects its first hard fault and dies on the second),
// a crossbar bypass bus covering any single crossbar mux fault, and input
// port swapping. Its published mean faults-to-failure is 9.3 at 42% area
// overhead; the ECC unit count is calibrated to that mean.
type Vicis struct {
	// ECCUnits is the number of independently ECC-protected datapath
	// units.
	ECCUnits int
	// XBMuxes is the number of crossbar muxes covered by one bypass bus.
	XBMuxes int
}

// NewVicis returns the Table III design point.
func NewVicis() *Vicis { return &Vicis{ECCUnits: 30, XBMuxes: 5} }

// Name implements Design.
func (v *Vicis) Name() string { return "Vicis" }

// NumSites implements Design: two per ECC unit (datapath + its check
// bits), the crossbar muxes and the bypass bus.
func (v *Vicis) NumSites() int { return 2*v.ECCUnits + v.XBMuxes + 1 }

// NewInstance implements Design.
func (v *Vicis) NewInstance() Instance {
	return &vicisInstance{cfg: *v, ecc: make([]int, v.ECCUnits)}
}

type vicisInstance struct {
	cfg      Vicis
	ecc      []int
	xbFaults int
	busFault bool
}

func (vi *vicisInstance) Inject(site int) {
	switch {
	case site < 2*vi.cfg.ECCUnits:
		vi.ecc[site%vi.cfg.ECCUnits]++
	case site < 2*vi.cfg.ECCUnits+vi.cfg.XBMuxes:
		vi.xbFaults++
	default:
		vi.busFault = true
	}
}

func (vi *vicisInstance) Functional() bool {
	for _, h := range vi.ecc {
		if h >= 2 {
			return false // ECC exhausted on one unit
		}
	}
	// The bypass bus covers exactly one mux fault; a second mux fault, or
	// a mux fault with a broken bus, is fatal.
	if vi.xbFaults >= 2 {
		return false
	}
	if vi.xbFaults == 1 && vi.busFault {
		return false
	}
	return true
}

// --- RoCo ---

// RoCo models the row/column decomposed router: two independent halves
// (row and column) that continue in degraded mode when the other fails.
// Within each half, the routing logic is covered by look-ahead routing
// and the switch arbiter by shared VA arbiters, so each half absorbs a
// few faults before dying; total failure requires both halves dead. The
// published deduction is 5.5 mean faults to failure; area overhead was
// not reported (the paper bounds RoCo's SPF above by 5.5).
type RoCo struct {
	// TolerantPerHalf is how many protected units each half has (each
	// absorbs one fault, second fault in a unit kills the half).
	TolerantPerHalf int
	// FragilePerHalf is how many unprotected units each half has (one
	// fault kills the half).
	FragilePerHalf int
}

// NewRoCo returns the Table III design point (calibrated to 5.5).
func NewRoCo() *RoCo { return &RoCo{TolerantPerHalf: 2, FragilePerHalf: 1} }

// Name implements Design.
func (rc *RoCo) Name() string { return "RoCo" }

// NumSites implements Design.
func (rc *RoCo) NumSites() int { return 2 * (2*rc.TolerantPerHalf + rc.FragilePerHalf) }

// NewInstance implements Design.
func (rc *RoCo) NewInstance() Instance {
	return &rocoInstance{
		cfg: *rc,
		tol: [2][]int{make([]int, rc.TolerantPerHalf), make([]int, rc.TolerantPerHalf)},
	}
}

type rocoInstance struct {
	cfg     RoCo
	tol     [2][]int
	fragile [2]bool
}

func (ri *rocoInstance) Inject(site int) {
	perHalf := 2*ri.cfg.TolerantPerHalf + ri.cfg.FragilePerHalf
	half := site / perHalf
	idx := site % perHalf
	if idx < 2*ri.cfg.TolerantPerHalf {
		ri.tol[half][idx%ri.cfg.TolerantPerHalf]++
	} else {
		ri.fragile[half] = true
	}
}

// halfDead reports whether one half can no longer operate.
func (ri *rocoInstance) halfDead(h int) bool {
	if ri.fragile[h] {
		return true
	}
	for _, c := range ri.tol[h] {
		if c >= 2 {
			return true
		}
	}
	return false
}

// Functional implements Instance: RoCo degrades gracefully and only fails
// once both the row and the column component are dead.
func (ri *rocoInstance) Functional() bool {
	return !ri.halfDead(0) || !ri.halfDead(1)
}
