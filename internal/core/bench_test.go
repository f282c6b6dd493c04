package core

import (
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// feeder plays the upstream neighbours and the NI of one router: it
// streams a fixed packet into each chosen input VC under credit flow
// control (at most one flit per port per cycle) and hands every output
// flit's credit straight back, so the router runs as loaded as its
// pipeline allows on the VCs that are fed and sees nothing on the rest.
// Steady state allocates nothing: the flits are segmented once.
type feeder struct {
	r     *Router
	vcs   int
	feeds [][]vcFeed // [port][vc]; nil for a port with no fed VC, and a feed with no flits is off
	next  []int      // per port, the VC the round-robin starts at
	cycle sim.Cycle
	sent  uint64 // flits the router has emitted
}

type vcFeed struct {
	flits   []*flit.Flit
	sent    int
	credits int
	busy    bool // the VC holds a packet whose tail has not left yet
}

// newFeeder builds a router at the centre of a 3x3 mesh and feeds the
// input VCs fed selects. VC v of port p sends 1- and 5-flit packets
// (odd v: 5) out of a port other than p.
func newFeeder(cfg router.Config, fed func(p, v int) bool) *feeder {
	mesh := topology.NewMesh(3, 3)
	const centre = 4
	f := &feeder{r: MustNew(centre, mesh, cfg), vcs: cfg.VCs, next: make([]int, cfg.Ports)}
	f.feeds = make([][]vcFeed, cfg.Ports)
	for p := 0; p < cfg.Ports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			if !fed(p, v) {
				continue
			}
			if f.feeds[p] == nil {
				f.feeds[p] = make([]vcFeed, cfg.VCs)
			}
			out := topology.Port((p + 1 + v%(cfg.Ports-1)) % cfg.Ports)
			dst := centre
			if out != topology.Local {
				dst, _ = mesh.Neighbor(centre, out)
			}
			size := 1 + 4*(v%2)
			pkt := &flit.Packet{Dst: dst, Size: size, Class: flit.Class(cfg.ClassOf(v))}
			f.feeds[p][v] = vcFeed{flits: flit.Segment(pkt), sent: size, credits: cfg.Depth}
		}
	}
	return f
}

func (f *feeder) tick() {
	f.offer()
	f.r.Tick(f.cycle)
	f.cycle++
	f.collect()
}

// offer latches this cycle's flit of every fed port that can send one.
func (f *feeder) offer() {
	for p, row := range f.feeds {
		for k := 0; k < len(row); k++ {
			v := (f.next[p] + k) % f.vcs
			fd := &row[v]
			if len(fd.flits) == 0 || fd.credits == 0 {
				continue
			}
			if fd.sent == len(fd.flits) {
				if fd.busy {
					continue
				}
				fd.sent, fd.busy = 0, true
			}
			f.r.AcceptFlit(router.InFlit{In: topology.Port(p), VC: v, F: fd.flits[fd.sent]})
			fd.sent++
			fd.credits--
			f.next[p] = v + 1
			break
		}
	}
}

// collect hands every output flit's credit straight back and takes the
// credits the router returned upstream.
func (f *feeder) collect() {
	outs := f.r.TakeOutFlits()
	f.sent += uint64(len(outs))
	for _, of := range outs {
		f.r.AcceptCredit(CreditIn{Out: of.Out, VC: of.DownVC, VCFree: of.F.Kind.IsTail()})
	}
	for _, cr := range f.r.TakeOutCredits() {
		fd := &f.feeds[cr.In][cr.VC]
		fd.credits++
		if cr.VCFree {
			fd.busy = false
		}
	}
}

// collectHeld is collect with every downstream credit held back
// len(held)-1 cycles, which is what starves the router of credits:
// held[i] are the credits to hand back i cycles on.
func (f *feeder) collectHeld(held [][]CreditIn) {
	d := len(held) - 1
	if d == 0 {
		f.collect()
		return
	}
	outs := f.r.TakeOutFlits()
	f.sent += uint64(len(outs))
	for _, of := range outs {
		held[d] = append(held[d], CreditIn{Out: of.Out, VC: of.DownVC, VCFree: of.F.Kind.IsTail()})
	}
	f.collect() // no out flits left: the upstream credits alone
	for _, c := range held[0] {
		f.r.AcceptCredit(c)
	}
	copy(held, held[1:])
	held[d] = nil
}

// BenchmarkTick times one Router.Tick (plus the feeder's share) at the
// occupancies the step loop meets: an empty router, one VC of one port
// streaming (what a router on a low-load path looks like), every VC of
// every port streaming — at the default 4 VCs and at 16, where the VA
// stage-2 request set (80 inputs) spans more than one word — and an
// empty router kept awake by a port in SA bypass mode. The first two are
// where occupancy masks pay, the loaded ones where request words do.
func BenchmarkTick(b *testing.B) {
	none := func(p, v int) bool { return false }
	all := func(p, v int) bool { return true }
	for _, bc := range []struct {
		name   string
		fed    func(p, v int) bool
		bypass bool
		vcs    int // 0 = the default
	}{
		{"idle", none, false, 0},
		{"sparse-1vc", func(p, v int) bool { return p == int(topology.West) && v == 1 }, false, 0},
		{"loaded", all, false, 0},
		{"loaded-16vc", all, false, 16},
		{"bypass-idle", none, true, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := router.DefaultConfig()
			cfg.FaultTolerant = true
			if bc.vcs > 0 {
				cfg.VCs = bc.vcs
			}
			f := newFeeder(cfg, bc.fed)
			if bc.bypass {
				f.r.SetSA1Fault(topology.East, true)
			}
			for i := 0; i < 100; i++ {
				f.tick() // fill the pipeline
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.tick()
			}
			b.StopTimer()
			if got := f.sent; (got == 0) != (bc.name == "idle" || bc.bypass) {
				b.Fatalf("%d flits sent: the case does not run at the occupancy it names", got)
			}
		})
	}
}

// BenchmarkRouterState times SaveState, SaveStateInto recycled storage
// and RestoreState on a router with every VC of every port streaming —
// the worst case for the record, every VC has an entry — and on an empty
// one, where none has. The clone allocates, as the benchmark ledger's
// core.state_save_ns / core.state_restore_ns clone does.
func BenchmarkRouterState(b *testing.B) {
	clone := func(f *flit.Flit) *flit.Flit { c := *f; return &c }
	for _, tc := range []struct {
		name string
		fed  func(p, v int) bool
	}{
		{"loaded", func(p, v int) bool { return true }},
		{"idle", func(p, v int) bool { return false }},
	} {
		cfg := router.DefaultConfig()
		cfg.FaultTolerant = true
		f := newFeeder(cfg, tc.fed)
		for i := 0; i < 200; i++ {
			f.tick()
		}
		st := f.r.SaveState(clone)
		b.Run(tc.name+"/save-fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st = f.r.SaveState(clone)
			}
		})
		b.Run(tc.name+"/save-recycled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st = f.r.SaveStateInto(st, clone)
			}
		})
		b.Run(tc.name+"/restore", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.r.RestoreState(st, clone)
			}
		})
	}
}
