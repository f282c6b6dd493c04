package modelcheck

import (
	"fmt"
	"math"
	"time"

	"gonoc/internal/rng"
	"gonoc/internal/sim"
)

// MCOptions configures a Monte-Carlo walk campaign. The zero value
// applies defaults.
type MCOptions struct {
	// Walks is the number of independent random executions (default
	// 256).
	Walks int
	// MaxSteps bounds each walk's transition count before the drain
	// check (default 2048).
	MaxSteps int
	// DrainLimit bounds the post-walk drain in cycles (default 4096).
	DrainLimit int
	// Seed seeds the walk RNG.
	Seed uint64
	// Delta is the confidence parameter for the violation-probability
	// bound (default 1e-3, i.e. 99.9% confidence).
	Delta float64
}

func (o MCOptions) withDefaults() MCOptions {
	if o.Walks <= 0 {
		o.Walks = 256
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 2048
	}
	if o.DrainLimit <= 0 {
		o.DrainLimit = 4096
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		o.Delta = 1e-3
	}
	return o
}

// MCResult is the outcome of MonteCarlo.
type MCResult struct {
	Scenario   Scenario
	Walks      int
	Violations int
	// Bound is the Chernoff-Hoeffding upper bound on the per-walk
	// violation probability at confidence 1-Delta, valid when
	// Violations is zero: observing 0 failures in N independent walks
	// bounds p <= ln(1/delta)/N.
	Bound float64
	Delta float64
	// MeanSteps is the average walk length to terminal success.
	MeanSteps float64
	Elapsed   time.Duration
	// FirstViolation replays the first failing walk, when any.
	FirstViolation []Choice
}

// MonteCarlo samples random executions of the scenario instead of
// exhausting them: at every state one enabled transition is drawn
// uniformly, until the schedule is injected and MaxSteps transitions
// have run; the walk then drains the network with pure ticks and
// checks the same delivery obligation Explore proves. It is the
// statistical fallback for configurations whose state spaces exceed
// exhaustive bounds (3x3 and up).
func MonteCarlo(sc Scenario, opt MCOptions) (MCResult, error) {
	opt = opt.withDefaults()
	start := time.Now()
	m, err := newMachine(&sc, nil)
	if err != nil {
		return MCResult{}, err
	}
	defer m.Close()

	root := m.n.Snapshot()
	rootShadow := m.saveShadow(shadow{})
	r := rng.New(opt.Seed)
	res := MCResult{Scenario: sc, Walks: opt.Walks, Delta: opt.Delta}
	var stepSum float64
	var choiceBuf []Choice

	for w := 0; w < opt.Walks; w++ {
		m.n.Restore(root)
		m.restoreShadow(rootShadow)
		var walk []Choice
		steps := 0
		for ; steps < opt.MaxSteps; steps++ {
			if m.terminal() {
				break
			}
			choiceBuf = m.choices(choiceBuf)
			c := choiceBuf[r.Intn(len(choiceBuf))]
			m.apply(c)
			walk = append(walk, c)
		}
		// Whatever the walk left in flight must drain and complete on
		// ticks alone — the deterministic tail of every execution.
		// Drain's limit is an absolute cycle number.
		drained := m.n.Drain(m.n.Now() + sim.Cycle(opt.DrainLimit))
		ok := drained && m.fullyInjected() && len(m.led.delivered) == m.expected
		if !ok {
			// A walk that ran out of steps before injecting everything
			// proved nothing either way; only count it as a violation
			// when the schedule completed and delivery still failed.
			if m.fullyInjected() {
				res.Violations++
				if res.FirstViolation == nil {
					res.FirstViolation = walk
				}
			}
		}
		stepSum += float64(steps)
	}
	res.MeanSteps = stepSum / float64(opt.Walks)
	if res.Violations == 0 {
		res.Bound = math.Log(1/opt.Delta) / float64(opt.Walks)
	} else {
		res.Bound = 1
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// String implements fmt.Stringer.
func (r MCResult) String() string {
	if r.Violations == 0 {
		return fmt.Sprintf("%s: 0 violations in %d walks (mean %.1f steps); P(violation) <= %.2e at %.1f%% confidence",
			r.Scenario.Name, r.Walks, r.MeanSteps, r.Bound, 100*(1-r.Delta))
	}
	return fmt.Sprintf("%s: %d violations in %d walks", r.Scenario.Name, r.Violations, r.Walks)
}
