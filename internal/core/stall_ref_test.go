package core

import (
	"reflect"
	"slices"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// stallReport is one classified non-advancing flit-cycle.
type stallReport struct {
	port, vc int
	kind     obs.StallKind
}

// refStallScan is the stall classifier the mask-driven scan replaced,
// kept verbatim as the reference oracle but for the busy bits (the
// router's []bool became one word per output port): it walks every VC
// of every port, skips the ones marked advanced, and switches on the
// VC's state.
// It returns the classes instead of recording them and leaves the
// advance marks for the production scan to consume.
func refStallScan(r *Router) []stallReport {
	var out []stallReport
	stall := func(k obs.StallKind, p, v int) { out = append(out, stallReport{p, v, k}) }
	V := r.cfg.VCs
	for p := 0; p < r.cfg.Ports; p++ {
		ip := r.in[p]
		for v := 0; v < V; v++ {
			skip := r.advanced[p]>>uint(v)&1 != 0
			q := ip.VCs[v]
			if skip {
				continue
			}
			switch q.G {
			case vc.Dropping:
				if !q.Empty() {
					stall(obs.StallFaultDrain, p, v)
				}
			case vc.Routing:
				if !headReady(q) {
					continue
				}
				if !r.rcUsable(p) {
					stall(obs.StallRouteBlocked, p, v)
				} else {
					stall(obs.StallArbLost, p, v)
				}
			case vc.VCAlloc:
				out := int(q.R)
				lo, hi := r.cfg.ClassRange(r.cfg.ClassOf(v))
				if q.DvcLo < q.DvcHi {
					lo, hi = q.DvcLo, q.DvcHi
				}
				free := false
				for dvc := lo; dvc < hi; dvc++ {
					if r.outBusy[out]>>uint(dvc)&1 == 0 {
						free = true
						break
					}
				}
				switch {
				case q.Detour || q.FSP:
					stall(obs.StallRouteBlocked, p, v)
				case !free:
					stall(obs.StallCreditStarved, p, v)
				default:
					stall(obs.StallArbLost, p, v)
				}
			case vc.Active:
				if q.Empty() {
					continue
				}
				switch {
				case !r.primaryPathUsable(q.R) && !r.secondaryPathUsable(q.R):
					stall(obs.StallRouteBlocked, p, v)
				case q.Detour || q.FSP:
					stall(obs.StallRouteBlocked, p, v)
				case r.credits[int(q.R)*V+q.OutVC] == 0:
					stall(obs.StallCreditStarved, p, v)
				default:
					stall(obs.StallArbLost, p, v)
				}
			}
		}
	}
	return out
}

// tickWithRef is Router.Tick with the reference classifier run between
// the stages and the production scan, where both see the same advance
// marks. TestStallScanMatchesReference checks it against the real Tick.
func tickWithRef(r *Router, cy sim.Cycle) []stallReport {
	r.acceptInputs()
	if r.quiescent() {
		return nil
	}
	r.drainStage()
	r.xbStage(cy)
	r.saStage(cy)
	r.vaStage(cy)
	r.rcStage(cy)
	want := refStallScan(r)
	r.stallScan(cy)
	return want
}

// stallCounts reads router id's stall counters out of the registry, one
// per (port, vc, kind) in port-major order.
func stallCounts(m *obs.Metrics, id int, cfg router.Config) []uint64 {
	out := make([]uint64, 0, cfg.Ports*cfg.VCs*obs.NumStallKinds)
	for p := 0; p < cfg.Ports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			for k := 0; k < obs.NumStallKinds; k++ {
				key := obs.Key{Kind: obs.StallKind(k).Kind(), Router: int32(id), Port: int8(p), VC: int8(v)}
				out = append(out, m.Counter(key).Value())
			}
		}
	}
	return out
}

// stallCase is one lockstep scenario.
type stallCase struct {
	name string
	fed  func(p, v int) bool
	// setup applies fault sites and routing overrides to the router.
	setup func(r *Router, mesh topology.Mesh)
	// creditDelay holds every downstream credit back this many cycles,
	// which is what starves the router of credits.
	creditDelay int
	// kinds are the stall classes the scenario must produce at least once
	// (and an empty list means it must produce none at all).
	kinds []obs.StallKind
}

func stallCases() []stallCase {
	all := func(p, v int) bool { return true }
	none := func(p, v int) bool { return false }
	const centre = 4
	return []stallCase{
		{name: "loaded", fed: all, kinds: []obs.StallKind{obs.StallArbLost}},
		{name: "credit-starved", fed: all, creditDelay: 6,
			kinds: []obs.StallKind{obs.StallArbLost, obs.StallCreditStarved}},
		{name: "faulted", fed: all,
			setup: func(r *Router, _ topology.Mesh) {
				r.SetSA1Fault(topology.East, true)          // bypass path, transfers
				r.SetVA1Fault(topology.North, 0, true)      // arbiter borrowing
				r.SetVA2Fault(topology.South, 1, true)      // stage-2 retries
				r.SetRCFault(topology.West, 0, true)        // duplicate RC
				r.SetRCFault(topology.South, 0, true)       // both copies: routing
				r.SetRCFault(topology.South, 1, true)       // itself is blocked
				r.SetXBFault(topology.West, true)           // secondary crossbar path
				r.SetXBFault(topology.North, true)          // no path at all to
				r.SetXBSecondaryFault(topology.North, true) // this output
			},
			kinds: []obs.StallKind{obs.StallArbLost, obs.StallRouteBlocked}},
		{name: "dead-link", fed: all,
			// Table routing around a dead East link: packets for the east
			// neighbour detour through North, and the south neighbour is
			// cut off, so its packets are dropped and drained.
			setup: func(r *Router, mesh topology.Mesh) {
				east, _ := mesh.Neighbor(centre, topology.East)
				south, _ := mesh.Neighbor(centre, topology.South)
				r.SetRouteFn(func(cur int, in topology.Port, vcIdx, dst int) (topology.Port, int, int, bool) {
					switch dst {
					case south:
						return topology.Local, 0, 0, false
					case east:
						return topology.North, 0, 0, true
					}
					return mesh.Route(cur, dst), 0, 0, true
				})
			},
			kinds: []obs.StallKind{obs.StallArbLost, obs.StallRouteBlocked, obs.StallFaultDrain}},
		{name: "idle", fed: none},
		{name: "idle-bypass", fed: none,
			setup: func(r *Router, _ topology.Mesh) { r.SetSA1Fault(topology.East, true) }},
	}
}

// TestStallScanMatchesReference steps loaded, faulted, rerouted and idle
// routers with the production stall scan and the full-walk classifier it
// replaced in lockstep: every cycle the (port, vc, kind) set the
// production scan counted must be exactly the reference's. A twin router
// driven through the real Tick must end with the same registry, which
// proves tickWithRef is Tick.
func TestStallScanMatchesReference(t *testing.T) {
	const cycles = 3000
	for _, tc := range stallCases() {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*feeder, *obs.Observer) {
				cfg := router.DefaultConfig()
				cfg.FaultTolerant = true
				cfg.Obs = obs.New(0)
				f := newFeeder(cfg, tc.fed)
				if tc.setup != nil {
					tc.setup(f.r, topology.NewMesh(3, 3))
				}
				return f, cfg.Obs
			}
			f, o := build()
			twin, twinObs := build()
			cfg := f.r.Config()

			held := make([][]CreditIn, tc.creditDelay+1)

			var seen [obs.NumStallKinds]uint64
			prev := stallCounts(o.Metrics, f.r.ID, cfg)
			for c := 0; c < cycles; c++ {
				f.offer()
				want := tickWithRef(f.r, f.cycle)
				f.cycle++
				f.collectHeld(held)

				now := stallCounts(o.Metrics, f.r.ID, cfg)
				var got []stallReport
				for i := range now {
					if d := now[i] - prev[i]; d == 1 {
						got = append(got, stallReport{
							port: i / obs.NumStallKinds / cfg.VCs,
							vc:   i / obs.NumStallKinds % cfg.VCs,
							kind: obs.StallKind(i % obs.NumStallKinds),
						})
					} else if d != 0 {
						t.Fatalf("cycle %d: stall counter %d moved by %d in one cycle", c, i, d)
					}
				}
				prev = now
				if !slices.Equal(got, want) {
					t.Fatalf("cycle %d: production scan reported %v, reference %v", c, got, want)
				}
				for _, s := range want {
					seen[s.kind]++
				}
			}

			for k := 0; k < obs.NumStallKinds; k++ {
				wanted := slices.Contains(tc.kinds, obs.StallKind(k))
				if wanted && seen[k] == 0 {
					t.Errorf("scenario never produced a %v stall", obs.StallKind(k))
				}
				if len(tc.kinds) == 0 && seen[k] != 0 {
					t.Errorf("idle scenario produced %d %v stalls", seen[k], obs.StallKind(k))
				}
			}

			if tc.creditDelay != 0 {
				return // the twin's feeder returns credits at once
			}
			for c := 0; c < cycles; c++ {
				twin.tick()
			}
			if !reflect.DeepEqual(o.Metrics.Snapshot(), twinObs.Metrics.Snapshot()) {
				t.Error("a router stepped through tickWithRef and one stepped through Tick ended with different registries")
			}
			if f.r.Counters != twin.r.Counters {
				t.Errorf("mechanism counters diverged: %+v vs Tick's %+v", f.r.Counters, twin.r.Counters)
			}
		})
	}
}

// TestAdvanceWordsOnlyWhenObserved pins the lights-off size contract:
// the stall scan's advance words exist only on a router with an obs
// handle bound, so an unobserved router carries a nil slice for them.
func TestAdvanceWordsOnlyWhenObserved(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	if r := MustNew(4, topology.NewMesh(3, 3), cfg); r.advanced != nil {
		t.Errorf("lights-off router allocated %d advance words", len(r.advanced))
	}
	cfg.Obs = obs.New(0)
	if r := MustNew(4, topology.NewMesh(3, 3), cfg); len(r.advanced) != cfg.Ports {
		t.Errorf("observed router has %d advance words, want one per port (%d)", len(r.advanced), cfg.Ports)
	}
}
