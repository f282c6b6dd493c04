// Snapshot/restore round-trip suite: a restored network must replay
// bit-exactly — same canonical state trajectory, same statistics — and
// a snapshot must survive multiple restores unchanged. These are the
// properties the model-checking tier (internal/modelcheck) is built on.
package noc_test

import (
	"bytes"
	"fmt"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
	"gonoc/internal/vc"
)

// trajectory records per-cycle canonical hashes plus the final summary
// over k further steps, without mutating semantics (stats are part of
// the snapshot so they rewind too).
func trajectory(n *noc.Network, k int) string {
	var b []byte
	for i := 0; i < k; i++ {
		b = fmt.Appendf(b, "%d:%016x\n", n.Now(), n.StateHash())
		n.Step()
	}
	b = fmt.Appendf(b, "final %016x\n%s", n.StateHash(), n.Stats().Summary())
	return string(b)
}

// TestSnapshotRestoreRoundTrip snapshots a loaded mid-drain network
// (traffic stopped, flits still in flight) and asserts the continuation
// replays identically after each of two restores.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo string
		conc int
	}{
		{name: "mesh", topo: ""},
		{name: "torus", topo: "torus"},
		{name: "cmesh", topo: "cmesh", conc: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := router.DefaultConfig()
			rc.FaultTolerant = true
			src := traffic.NewSynthetic(16, 0.1, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 11)
			src.StopAt(120)
			n := noc.MustNew(noc.Config{
				Width: 4, Height: 4, Topo: tc.topo, Conc: tc.conc,
				Router: rc, Retx: noc.RetxConfig{Timeout: 400, MaxRetries: 3},
			}, src)
			defer n.Close()
			n.Run(130) // traffic stopped; flits still in flight
			if n.Stats().InFlight() == 0 {
				t.Fatal("network drained before the snapshot; case exercises nothing")
			}

			snap := n.Snapshot()
			want := trajectory(n, 60)

			n.Restore(snap)
			if got := trajectory(n, 60); got != want {
				t.Errorf("first restore diverged:\n--- original ---\n%s--- restored ---\n%s", want, got)
			}
			n.Restore(snap)
			if got := trajectory(n, 60); got != want {
				t.Errorf("second restore diverged: snapshot was consumed by the first restore")
			}
		})
	}
}

// TestSnapshotRestoreUnderFaults snapshots a mesh with a dead link, a
// dead router, pending retransmissions and duplicate-suppression state,
// and asserts restore reproduces the continuation — including the
// fault-aware routing tables rebuilt from the restored fault sets.
func TestSnapshotRestoreUnderFaults(t *testing.T) {
	src := traffic.NewSynthetic(16, 0.08, traffic.Uniform(16), traffic.FixedSize(2), 23)
	src.StopAt(200)
	n := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 120, MaxRetries: 4}, 1, src)
	defer n.Close()
	n.AddHook(func(c sim.Cycle) {
		if c == 50 {
			if err := n.SetLinkFault(5, topology.East, true); err != nil {
				t.Error(err)
			}
		}
		if c == 90 {
			if err := n.SetRouterFault(10, true); err != nil {
				t.Error(err)
			}
		}
	})
	n.Run(230)

	snap := n.Snapshot()
	want := trajectory(n, 200)
	n.Restore(snap)
	if got := trajectory(n, 200); got != want {
		t.Errorf("faulted restore diverged:\n--- original ---\n%s--- restored ---\n%s", want, got)
	}
}

// TestSnapshotIsolation asserts post-snapshot execution cannot corrupt
// the snapshot: the canonical encoding captured at snapshot time is
// reproduced exactly by restoring after the network has moved on.
func TestSnapshotIsolation(t *testing.T) {
	src := traffic.NewSynthetic(16, 0.1, traffic.Uniform(16), traffic.FixedSize(3), 5)
	src.StopAt(80)
	n := newFaultNet(t, 4, 4, noc.RetxConfig{}, 1, src)
	defer n.Close()
	n.Run(90)

	before := n.AppendCanonical(nil)
	snap := n.Snapshot()
	n.Run(100) // mutate flits, credits, arbiters in place
	n.Restore(snap)
	after := n.AppendCanonical(nil)
	if !bytes.Equal(before, after) {
		t.Error("canonical state after restore differs from the state at snapshot time")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("restored network violates invariants: %v", err)
	}
}

// TestSnapshotParallelWorkers asserts a snapshot taken from a serial
// network replays identically on a parallel-stepping one (the snapshot
// state is worker-count independent, like everything else in Step).
func TestSnapshotParallelWorkers(t *testing.T) {
	build := func(workers int) *noc.Network {
		src := traffic.NewSynthetic(16, 0.1, traffic.Uniform(16), traffic.FixedSize(2), 77)
		src.StopAt(100)
		return newFaultNet(t, 4, 4, noc.RetxConfig{}, workers, src)
	}
	serial := build(1)
	defer serial.Close()
	serial.Run(110)
	snap := serial.Snapshot()
	want := trajectory(serial, 80)

	par := build(8)
	defer par.Close()
	par.Run(110) // same seed: same state; then restore the serial snapshot
	par.Restore(snap)
	if got := trajectory(par, 80); got != want {
		t.Errorf("parallel continuation diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

// vcsIn counts the input VCs of the whole network in pipeline state g.
func vcsIn(n *noc.Network, g vc.GState) int {
	count := 0
	for id := 0; id < n.Topo().Nodes(); id++ {
		r := n.Router(id)
		cfg := r.Config()
		for p := 0; p < cfg.Ports; p++ {
			for v := 0; v < cfg.VCs; v++ {
				if r.InputVC(topology.Port(p), v).G == g {
					count++
				}
			}
		}
	}
	return count
}

// TestRestoreIntoFreshNetwork restores a mid-packet snapshot into a
// network that has never stepped, so every piece of router state the
// snapshot does not carry — the occupancy masks and counts the pipeline
// finds its work through — must be rebuilt by Restore rather than happen
// to match. The partitioned variant snapshots while routing holds a VC
// in Dropping, the state with its own derived count.
func TestRestoreIntoFreshNetwork(t *testing.T) {
	const stop = 120
	for _, partition := range []bool{false, true} {
		name := "loaded"
		if partition {
			name = "partitioned"
		}
		t.Run(name, func(t *testing.T) {
			retx := noc.RetxConfig{Timeout: 150, MaxRetries: 2}
			build := func(workers int) *noc.Network {
				src := traffic.NewSynthetic(16, 0.1, traffic.Uniform(16), traffic.FixedSize(5), 4242)
				src.StopAt(stop)
				return newFaultNet(t, 4, 4, retx, workers, src)
			}
			n := build(1)
			defer n.Close()
			if partition {
				n.AddHook(func(c sim.Cycle) {
					if c != stop-1 {
						return
					}
					// Cut the NW corner off with packets to and from it in flight.
					for _, p := range []topology.Port{topology.East, topology.South} {
						if err := n.SetLinkFault(0, p, true); err != nil {
							t.Error(err)
						}
					}
				})
			}
			n.Run(stop)
			if partition {
				for i := 0; vcsIn(n, vc.Dropping) == 0; i++ {
					if i == 200 {
						t.Fatal("no VC entered Dropping after the partition; case exercises nothing")
					}
					n.Step()
				}
			}
			if vcsIn(n, vc.Active) == 0 {
				t.Fatal("no packet mid-flight at the snapshot; case exercises nothing")
			}

			snap := n.Snapshot()
			want := trajectory(n, 200)
			for _, workers := range []int{1, 2} {
				fresh := build(workers)
				fresh.Restore(snap)
				if got := trajectory(fresh, 200); got != want {
					t.Errorf("workers=%d: fresh network diverged after Restore:\n--- original ---\n%s--- fresh ---\n%s",
						workers, want, got)
				}
				fresh.Close()
			}
		})
	}
}
