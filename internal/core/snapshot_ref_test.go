package core

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// This file keeps the field-by-field save/restore that the sequential
// record of snapshot.go replaced, verbatim but for the ref prefix and
// the VC buffer refill (vc.SetFlits became Clear + Push): one slice per
// saved field, one vcState per input VC, flits held by pointer. It is
// the oracle of TestRouterStateMatchesReference. (internal/noc keeps the
// old network snapshot the same way and fuzzes the two layouts against
// each other end to end, FuzzSnapshotMatchesReference.)

// refVCState is the saved form of one input VC.
type refVCState struct {
	flits  []*flit.Flit
	g      vc.GState
	r      topology.Port
	outVC  int
	r2     topology.Port
	vf     bool
	id     int
	sp     topology.Port
	fsp    bool
	detour bool
	dvcLo  int
	dvcHi  int
}

// refRouterState is the old RouterState: ten heap objects, one slice per
// saved field, the flits held by pointer.
type refRouterState struct {
	vcs       [][]refVCState
	outVCBusy [][]bool
	credits   [][]int
	grants    []grant
	rcScan    []int
	saAdopted []int
	saAdopt   []int

	va1Prio []int // per (port, VC), indexed p*VCs+v, as va2Prio and the two va*Faulty
	va2Prio []int
	sa1Prio []int
	sa1DW   []int // bypass default-winner register, per port
	sa1Rot  []int // bypass grants-since-rotation counter, per port
	sa2Prio []int

	rcFaulty     [][2]bool
	va1Faulty    []bool
	va2Faulty    []bool
	sa1ArbFault  []bool
	sa1BypFault  []bool
	sa2Faulty    []bool
	xbMuxFaulty  []bool
	xbSecFaulty  []bool
	xbSecPresent bool

	counters Counters
}

// refSaveState is the old SaveState.
func (r *Router) refSaveState(cloneFlit func(*flit.Flit) *flit.Flit) *refRouterState {
	return r.refSaveStateInto(nil, cloneFlit)
}

// refSaveStateInto is the old SaveStateInto: every field of old is
// overwritten and old is returned; a nil old, or one of another port or
// VC count, is left untouched and a fresh state is returned instead.
func (r *Router) refSaveStateInto(old *refRouterState, cloneFlit func(*flit.Flit) *flit.Flit) *refRouterState {
	P, V := r.cfg.Ports, r.cfg.VCs
	s := old
	if s == nil || len(s.vcs) != P || len(s.va1Prio) != P*V {
		s = newRefRouterState(P, V)
	}
	s.grants = append(s.grants[:0], r.grants...)
	copy(s.rcScan, r.rcScan)
	copy(s.saAdopted, r.saAdopted)
	copy(s.saAdopt, r.saAdoptAge)
	s.xbSecPresent = r.xbProt != nil
	s.counters = r.Counters
	for p := 0; p < P; p++ {
		copy(s.outVCBusy[p], r.outVCBusy[p*V:])
		copy(s.credits[p], r.credits[p*V:])
		for v := 0; v < V; v++ {
			refSaveVC(&s.vcs[p][v], r.in[p].VCs[v], cloneFlit)
			s.va1Prio[p*V+v] = r.va.Stage1(p, v).Prio()
			s.va2Prio[p*V+v] = r.va.Stage2(p, v).Prio()
			s.va1Faulty[p*V+v] = r.va.Stage1Faulty(p, v)
			s.va2Faulty[p*V+v] = r.va.Stage2(p, v).Faulty()
		}
		b := r.sa.Stage1(p)
		s.sa1Prio[p] = b.Arb.Prio()
		s.sa1DW[p], s.sa1Rot[p] = b.BypassState()
		s.sa1ArbFault[p] = b.Arb.Faulty()
		s.sa1BypFault[p] = b.BypassFaulty()
		s.sa2Prio[p] = r.sa.Stage2(p).Prio()
		s.sa2Faulty[p] = r.sa.Stage2(p).Faulty()
		s.rcFaulty[p][0] = r.rc[p].Faulty(0)
		s.rcFaulty[p][1] = r.cfg.FaultTolerant && r.rc[p].Faulty(1)
		if r.xbProt != nil {
			s.xbMuxFaulty[p] = r.xbProt.MuxFaulty(p)
			s.xbSecFaulty[p] = r.xbProt.SecondaryFaulty(p)
		} else {
			s.xbMuxFaulty[p] = r.xbBase.MuxFaulty(p)
			s.xbSecFaulty[p] = false
		}
	}
	return s
}

// newRefRouterState allocates the storage of a P-port, V-VC router state,
// carving the fixed-length slices out of one backing array per element
// type. It sets no values: refSaveStateInto writes every field of a fresh
// state and of a recycled one through the same assignments.
func newRefRouterState(P, V int) *refRouterState {
	ints := make([]int, 7*P+3*P*V)
	bools := make([]bool, 5*P+3*P*V)
	takeInts := func(n int) []int {
		out := ints[:n:n]
		ints = ints[n:]
		return out
	}
	takeBools := func(n int) []bool {
		out := bools[:n:n]
		bools = bools[n:]
		return out
	}
	s := &refRouterState{
		vcs:       make([][]refVCState, P),
		outVCBusy: make([][]bool, P),
		credits:   make([][]int, P),
		rcScan:    takeInts(P),
		saAdopted: takeInts(P),
		saAdopt:   takeInts(P),

		va1Prio: takeInts(P * V),
		va2Prio: takeInts(P * V),
		sa1Prio: takeInts(P),
		sa1DW:   takeInts(P),
		sa1Rot:  takeInts(P),
		sa2Prio: takeInts(P),

		rcFaulty:    make([][2]bool, P),
		va1Faulty:   takeBools(P * V),
		va2Faulty:   takeBools(P * V),
		sa1ArbFault: takeBools(P),
		sa1BypFault: takeBools(P),
		sa2Faulty:   takeBools(P),
		xbMuxFaulty: takeBools(P),
		xbSecFaulty: takeBools(P),
	}
	vcs := make([]refVCState, P*V)
	for p := 0; p < P; p++ {
		s.vcs[p] = vcs[p*V : (p+1)*V : (p+1)*V]
		s.outVCBusy[p] = takeBools(V)
		s.credits[p] = takeInts(V)
	}
	return s
}

func refSaveVC(s *refVCState, v *vc.VC, cloneFlit func(*flit.Flit) *flit.Flit) {
	s.flits = s.flits[:0]
	for _, f := range v.Flits() {
		s.flits = append(s.flits, cloneFlit(f))
	}
	s.g, s.r, s.outVC = v.G, v.R, v.OutVC
	s.r2, s.vf, s.id, s.sp, s.fsp = v.R2, v.VF, v.ID, v.SP, v.FSP
	s.detour = v.Detour
	s.dvcLo, s.dvcHi = v.DvcLo, v.DvcHi
}

// refRestoreState is the old RestoreState.
func (r *Router) refRestoreState(s *refRouterState, cloneFlit func(*flit.Flit) *flit.Flit) {
	if s.xbSecPresent != (r.xbProt != nil) {
		panic("core: RestoreState: snapshot crossbar protection does not match the router's configuration")
	}
	P, V := r.cfg.Ports, r.cfg.VCs
	for p := 0; p < P; p++ {
		copy(r.outVCBusy[p*V:], s.outVCBusy[p])
		copy(r.credits[p*V:], s.credits[p])
		for v := 0; v < V; v++ {
			refRestoreVC(r.in[p].VCs[v], &s.vcs[p][v], cloneFlit)
			r.va.Stage1(p, v).SetPrio(s.va1Prio[p*V+v])
			r.va.Stage2(p, v).SetPrio(s.va2Prio[p*V+v])
			r.va.SetStage1Faulty(p, v, s.va1Faulty[p*V+v])
			r.va.Stage2(p, v).SetFaulty(s.va2Faulty[p*V+v])
		}
		b := r.sa.Stage1(p)
		b.Arb.SetPrio(s.sa1Prio[p])
		b.SetBypassState(s.sa1DW[p], s.sa1Rot[p])
		b.Arb.SetFaulty(s.sa1ArbFault[p])
		b.SetBypassFaulty(s.sa1BypFault[p])
		r.sa.Stage2(p).SetPrio(s.sa2Prio[p])
		r.sa.Stage2(p).SetFaulty(s.sa2Faulty[p])
		r.rc[p].SetFaulty(0, s.rcFaulty[p][0])
		if r.cfg.FaultTolerant {
			r.rc[p].SetFaulty(1, s.rcFaulty[p][1])
		}
		if r.xbProt != nil {
			r.xbProt.SetMuxFaulty(p, s.xbMuxFaulty[p])
			r.xbProt.SetSecondaryFaulty(p, s.xbSecFaulty[p])
		} else {
			r.xbBase.SetMuxFaulty(p, s.xbMuxFaulty[p])
		}
	}
	r.grants = append(r.grants[:0], s.grants...)
	copy(r.rcScan, s.rcScan)
	copy(r.saAdopted, s.saAdopted)
	copy(r.saAdoptAge, s.saAdopt)
	r.Counters = s.counters
	r.rebuildOccupancy()
	r.inFlits = r.inFlits[:0]
	r.inCredits = r.inCredits[:0]
	r.outFlits = r.outFlits[:0]
	r.outCredits = r.outCredits[:0]
	r.droppedPkts = r.droppedPkts[:0]
}

func refRestoreVC(v *vc.VC, s *refVCState, cloneFlit func(*flit.Flit) *flit.Flit) {
	v.Clear()
	for _, f := range s.flits {
		v.Push(cloneFlit(f))
	}
	v.G, v.R, v.OutVC = s.g, s.r, s.outVC
	v.R2, v.VF, v.ID, v.SP, v.FSP = s.r2, s.vf, s.id, s.sp, s.fsp
	v.Detour = s.detour
	v.DvcLo, v.DvcHi = s.dvcLo, s.dvcHi
}

// cloneWithPacket is the flit clone a network snapshot makes, without
// the memo: flit and packet both copied.
func cloneWithPacket(f *flit.Flit) *flit.Flit {
	c, p := *f, *f.Pkt
	c.Pkt = &p
	return &c
}

// sameState compares two saved states value by value, packets included,
// a nil flit buffer equal to an empty one.
func sameState(a, b *RouterState) bool {
	if a.ports != b.ports || a.vcs != b.vcs || a.depth != b.depth || a.protected != b.protected ||
		a.counters != b.counters || !slices.Equal(a.rec, b.rec) || len(a.flits) != len(b.flits) {
		return false
	}
	for i, f := range a.flits {
		g := b.flits[i]
		if f.Kind != g.Kind || f.Seq != g.Seq || *f.Pkt != *g.Pkt {
			return false
		}
	}
	return true
}

// TestRouterStateMatchesReference saves loaded, credit-starved, faulted,
// rerouted and idle routers through the sequential record and through
// the field-by-field reference at the same step boundaries, while they
// fill and while they drain. Each pair is restored into twin routers
// that still hold the previous sample's state, so VCs the record leaves
// out must be reset by restore: the twins must then agree on the
// canonical bytes, the counters, the occupancy state and — saved once
// more through the reference, which reads every field — on all of it.
// The record is restored twice (restore must not consume it) and saved
// again into storage recycled from the busiest state seen.
func TestRouterStateMatchesReference(t *testing.T) {
	const fill, drain, every = 600, 120, 7
	for _, tc := range stallCases() {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *feeder {
				cfg := router.DefaultConfig()
				cfg.FaultTolerant = true
				f := newFeeder(cfg, tc.fed)
				if tc.setup != nil {
					tc.setup(f.r, topology.NewMesh(3, 3))
				}
				return f
			}
			f := build()
			twin, refTwin := build().r, build().r
			var recycled *RouterState
			peak, entries := 0, 0
			for c := 0; c < fill+drain; c++ {
				if c < fill {
					f.offer()
				}
				f.r.Tick(f.cycle)
				f.cycle++
				f.collect()
				if c%every != 0 {
					continue
				}
				r := f.r
				want := r.refSaveState(cloneWithPacket)
				st := r.SaveState(cloneWithPacket)
				entries += len(st.flits)

				for round := 0; round < 2; round++ {
					twin.RestoreState(st, cloneWithPacket)
					refTwin.refRestoreState(want, cloneWithPacket)
					canon := r.AppendCanonical(nil)
					if got := twin.AppendCanonical(nil); !bytes.Equal(got, canon) {
						t.Fatalf("cycle %d round %d: record restore changed the canonical state", c, round)
					}
					if got := refTwin.AppendCanonical(nil); !bytes.Equal(got, canon) {
						t.Fatalf("cycle %d round %d: reference restore changed the canonical state", c, round)
					}
					if twin.Counters != r.Counters {
						t.Fatalf("cycle %d: counters %+v, want %+v", c, twin.Counters, r.Counters)
					}
					if err := twin.CheckOccupancy(); err != nil {
						t.Fatalf("cycle %d: restored router: %v", c, err)
					}
					if got := twin.refSaveState(cloneWithPacket); !reflect.DeepEqual(got, want) {
						t.Fatalf("cycle %d round %d: a router restored from the record differs from the one saved, field by field:\n got %+v\nwant %+v", c, round, got, want)
					}
				}

				if n := r.bufferedFlits(); n >= peak {
					peak, recycled = n, r.SaveState(cloneWithPacket)
				} else {
					into := r.SaveStateInto(recycled, cloneWithPacket)
					if into != recycled {
						t.Fatalf("cycle %d: SaveStateInto did not reuse same-configuration storage", c)
					}
					if !sameState(into, st) {
						t.Fatalf("cycle %d: a save into storage recycled from a fuller state differs from a fresh one", c)
					}
					recycled = nil
					peak = 0
				}
			}
			if len(tc.kinds) > 0 && entries == 0 {
				t.Error("no sample held a buffered flit; case exercises nothing")
			}
		})
	}
}

// TestRouterStateRejectsOtherConfigurations pins the up-front refusal:
// a state restored into a router of another VC count, buffer depth or
// protection panics before a single field is overwritten, and storage
// offered to SaveStateInto from such a router is left alone.
func TestRouterStateRejectsOtherConfigurations(t *testing.T) {
	all := func(p, v int) bool { return true }
	donorCfg := router.DefaultConfig()
	donorCfg.FaultTolerant = true
	donor := newFeeder(donorCfg, all)
	for i := 0; i < 50; i++ {
		donor.tick()
	}
	st := donor.r.SaveState(cloneWithPacket)
	stCopy := donor.r.SaveState(cloneWithPacket)

	for name, mutate := range map[string]func(*router.Config){
		"fewer-vcs": func(c *router.Config) { c.VCs = 2 },
		"shallower": func(c *router.Config) { c.Depth = 2 },
		"baseline":  func(c *router.Config) { c.FaultTolerant = false },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := donorCfg
			mutate(&cfg)
			f := newFeeder(cfg, all)
			for i := 0; i < 30; i++ {
				f.tick()
			}
			before := f.r.AppendCanonical(nil)
			counters := f.r.Counters

			if got := f.r.SaveStateInto(st, cloneWithPacket); got == st {
				t.Error("SaveStateInto reused storage saved from another configuration")
			}
			if !sameState(st, stCopy) {
				t.Error("the offered state was modified although its configuration did not fit")
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "RestoreState") {
						t.Errorf("RestoreState of a foreign state: panic %q, want one naming both configurations", msg)
					}
				}()
				f.r.RestoreState(st, cloneWithPacket)
			}()
			if !bytes.Equal(f.r.AppendCanonical(nil), before) || f.r.Counters != counters {
				t.Error("the refused restore changed the router")
			}
		})
	}
}

// TestSaveStateRefusesWhatTheRecordCannotHold pins put's range check: a
// credit count past 16 bits (a buffer depth no experiment uses, but one
// router.Config accepts) panics in SaveState with the value named,
// instead of being truncated into a state that restores wrong.
func TestSaveStateRefusesWhatTheRecordCannotHold(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Depth = 1 << 15
	r := MustNew(4, topology.NewMesh(3, 3), cfg)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "32768 does not fit") {
			t.Errorf("SaveState of a depth-32768 router: panic %q, want the range check's", msg)
		}
	}()
	r.SaveState(cloneWithPacket)
}
