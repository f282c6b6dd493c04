package noc

import (
	"testing"

	"gonoc/internal/rng"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// TestRetxStateBounded runs the link-flap configuration — a 16x16 mesh
// at 0.008 packets/node/cycle under retransmission with a 1450-cycle
// timeout, a seeded link killed every 250 cycles and repaired half a
// period later — for 40,000 cycles, and every 5,000 requires the
// retransmission state to be bounded by what can still happen: no more
// entries than timers running plus copies in flight. Duplicate
// suppression that remembers every delivered packet grows past that
// bound with the deliveries.
func TestRetxStateBounded(t *testing.T) {
	const (
		cycles = 40000
		every  = 5000
		period = 250
	)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	src := traffic.NewSynthetic(256, 0.008, traffic.Uniform(256), traffic.Bimodal(1, 5, 0.6), 1)
	n, err := New(Config{Width: 16, Height: 16, Router: rc, Workers: 1, Retx: RetxConfig{Timeout: 1450}}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	type link struct {
		node int
		port topology.Port
	}
	var links []link
	for id := range n.topo.Nodes() {
		for _, p := range []topology.Port{topology.East, topology.South} {
			if n.neighbor(id, p) >= 0 {
				links = append(links, link{id, p})
			}
		}
	}
	r, cur := rng.New(1), link{}
	n.AddHook(func(c sim.Cycle) {
		switch c % period {
		case 0:
			cur = links[r.Intn(len(links))]
		case period / 2:
		default:
			return
		}
		if err := n.SetLinkFault(cur.node, cur.port, c%period == 0); err != nil {
			t.Error(err)
		}
	})

	for c := every; c <= cycles; c += every {
		n.Run(every)
		held := 0
		for _, es := range n.retx {
			held += len(es)
		}
		timing, inFlight := n.PendingRetx(), n.Stats().InFlight()
		t.Logf("cycle %d: %d entries held, %d timing, %d copies in flight", c, held, timing, inFlight)
		if held > timing+int(inFlight) {
			t.Fatalf("cycle %d: %d retransmission entries held, above %d timing + %d copies in flight", c, held, timing, inFlight)
		}
	}
	if s := n.Stats(); s.Retransmits() == 0 || s.Dropped() == 0 {
		t.Fatalf("nothing was dropped or retransmitted (%d, %d): the run exercises only the timers", s.Dropped(), s.Retransmits())
	}
}
