package workloads

import (
	"math"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

func TestSuitesWellFormed(t *testing.T) {
	for _, apps := range [][]App{SPLASH2(), PARSEC()} {
		if len(apps) < 8 {
			t.Fatalf("suite has only %d apps", len(apps))
		}
		seen := map[string]bool{}
		for _, a := range apps {
			if a.Name == "" || seen[a.Name] {
				t.Errorf("bad/duplicate app name %q", a.Name)
			}
			seen[a.Name] = true
			if a.Rate <= 0 || a.Rate > 0.1 {
				t.Errorf("%s: implausible rate %v", a.Name, a.Rate)
			}
			if a.ReadFrac < 0 || a.ReadFrac > 1 || a.Burstiness < 0 || a.Burstiness >= 1 ||
				a.MemFrac < 0 || a.MemFrac > 1 {
				t.Errorf("%s: fractions out of range: %+v", a.Name, a)
			}
		}
	}
}

func TestPARSECHeavierThanSPLASH2(t *testing.T) {
	// The paper's larger PARSEC delta comes from heavier offered load.
	avg := func(apps []App) float64 {
		s := 0.0
		for _, a := range apps {
			s += a.Rate / (1 - a.Burstiness)
		}
		return s / float64(len(apps))
	}
	if avg(PARSEC()) <= avg(SPLASH2()) {
		t.Fatalf("PARSEC effective load %.4f not above SPLASH-2 %.4f",
			avg(PARSEC()), avg(SPLASH2()))
	}
}

func TestCoherenceOfferedRate(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	app := App{Name: "x", Rate: 0.02, ReadFrac: 0.5, Burstiness: 0, MemFrac: 0}
	c := NewCoherence(app, mesh, 1)
	total := 0
	const cycles = 20000
	for cy := sim.Cycle(0); cy < cycles; cy++ {
		for n := 0; n < 64; n++ {
			total += len(c.Offered(n, cy))
		}
	}
	got := float64(total) / (64 * cycles)
	if math.Abs(got-0.02) > 0.002 {
		t.Fatalf("offered rate %v, want ~0.02", got)
	}
	if c.Requests != uint64(total) {
		t.Fatalf("request counter %d != offered %d", c.Requests, total)
	}
}

func TestCoherenceNeverSelf(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	app := App{Name: "x", Rate: 1, MemFrac: 0.5}
	c := NewCoherence(app, mesh, 2)
	for cy := sim.Cycle(0); cy < 50; cy++ {
		for n := 0; n < 64; n++ {
			for _, p := range c.Offered(n, cy) {
				if p.Dst == n {
					t.Fatal("request to self")
				}
				if p.Class != flit.Request || p.Size != 1 {
					t.Fatalf("malformed request %+v", p)
				}
			}
		}
	}
}

func TestCoherenceMemFraction(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	app := App{Name: "x", Rate: 1, MemFrac: 0.4}
	c := NewCoherence(app, mesh, 3)
	corners := map[int]bool{0: true, 7: true, 56: true, 63: true}
	hot, total := 0, 0
	for cy := sim.Cycle(0); cy < 400; cy++ {
		for n := 8; n < 16; n++ { // non-corner sources
			for _, p := range c.Offered(n, cy) {
				total++
				if corners[p.Dst] {
					hot++
				}
			}
		}
	}
	frac := float64(hot) / float64(total)
	// MemFrac plus the uniform tail's corner hits.
	if frac < 0.38 || frac > 0.52 {
		t.Fatalf("corner fraction %v, want ≈0.44", frac)
	}
}

func TestCoherenceReplies(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	app := App{Name: "x", Rate: 0.1, ReadFrac: 1.0}
	c := NewCoherence(app, mesh, 4)
	req := &flit.Packet{Src: 3, Dst: 9, Class: flit.Request, Size: 1}
	rsp := c.OnEject(req, 100)
	if len(rsp) != 1 || rsp[0].Dst != 3 || rsp[0].Class != flit.Response || rsp[0].Size != 5 {
		t.Fatalf("read reply: %+v", rsp)
	}
	app.ReadFrac = 0
	c2 := NewCoherence(app, mesh, 4)
	rsp2 := c2.OnEject(req, 100)
	if len(rsp2) != 1 || rsp2[0].Size != 1 {
		t.Fatalf("ack reply: %+v", rsp2)
	}
	// Responses never generate further traffic.
	if out := c.OnEject(rsp[0], 200); len(out) != 0 {
		t.Fatal("response generated traffic")
	}
	if c.Replies != 1 {
		t.Fatalf("reply counter %d", c.Replies)
	}
}

func TestCoherenceStopAt(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	c := NewCoherence(App{Name: "x", Rate: 1}, mesh, 5)
	if len(c.Offered(0, 5)) == 0 {
		t.Fatal("no request at rate 1")
	}
	c.StopAt(10)
	if len(c.Offered(0, 10)) != 0 {
		t.Fatal("request offered after stop")
	}
	// Replies still flow so the network can drain.
	req := &flit.Packet{Src: 1, Dst: 2, Class: flit.Request, Size: 1}
	if len(c.OnEject(req, 11)) != 1 {
		t.Fatal("reply suppressed after stop")
	}
}

func TestCoherenceDeterminism(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	run := func() []int {
		c := NewCoherence(SPLASH2()[2], mesh, 42)
		var log []int
		for cy := sim.Cycle(0); cy < 500; cy++ {
			for n := 0; n < 64; n++ {
				for _, p := range c.Offered(n, cy) {
					log = append(log, n, p.Dst)
				}
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic trace")
		}
	}
}

// TestCoherenceOnTorusAndCMesh drives the coherence source end to end
// through a torus network, whose Network has no Mesh() accessor, and
// requires live request/reply traffic to be delivered. The name is kept
// from when the test also ran a second topology family, so the torus
// case stays the same test ID.
func TestCoherenceOnTorusAndCMesh(t *testing.T) {
	t.Run("torus", func(t *testing.T) {
		tp, err := topology.New("torus", 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCoherence(SPLASH2()[0], tp, 11)
		c.StopAt(400)
		rc := router.DefaultConfig()
		rc.FaultTolerant = true
		n, err := noc.New(noc.Config{Width: 4, Height: 4, Topo: "torus", Router: rc, Workers: 1}, c)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		n.Run(400)
		if !n.Drain(5000) {
			t.Fatalf("did not drain: %d in flight", n.Stats().InFlight())
		}
		if c.Requests == 0 || c.Replies == 0 {
			t.Fatalf("no coherence traffic: %d requests, %d replies", c.Requests, c.Replies)
		}
		if n.Stats().Ejected() == 0 {
			t.Fatal("nothing delivered")
		}
	})
}
