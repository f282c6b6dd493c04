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

// TestSnapshotIsolation asserts nothing done after a snapshot can
// corrupt it: neither stepping the live network (which mutates flits,
// credits and arbiters in place, and writes histograms the snapshot
// shares copy-on-write) nor refilling another snapshot's recycled
// storage. The canonical encoding and the statistics captured at
// snapshot time are reproduced exactly by a later restore.
func TestSnapshotIsolation(t *testing.T) {
	src := traffic.NewSynthetic(16, 0.1, traffic.Uniform(16), traffic.FixedSize(3), 5)
	src.StopAt(80)
	n := newFaultNet(t, 4, 4, noc.RetxConfig{}, 1, src)
	defer n.Close()
	n.Run(90)

	before := n.AppendCanonical(nil)
	beforeStats := n.Stats().Summary()
	snap := n.Snapshot()
	spare := n.Snapshot()
	n.Run(50)
	spare = n.SnapshotInto(spare) // refill recycled storage while snap is held
	mid := n.AppendCanonical(nil)
	n.Run(50)
	if ejected := n.Stats().Summary(); ejected == beforeStats {
		t.Fatal("no ejection after the snapshot; the shared histograms were never written")
	}

	n.Restore(snap)
	if after := n.AppendCanonical(nil); !bytes.Equal(before, after) {
		t.Error("canonical state after restore differs from the state at snapshot time")
	}
	if got := n.Stats().Summary(); got != beforeStats {
		t.Errorf("statistics after restore differ from those at snapshot time:\n--- snapshot ---\n%s--- restored ---\n%s", beforeStats, got)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("restored network violates invariants: %v", err)
	}
	n.Restore(spare)
	if got := n.AppendCanonical(nil); !bytes.Equal(mid, got) {
		t.Error("the refilled snapshot does not restore the state it was refilled with")
	}
}

// load summarises how much a network state holds, so a test can assert
// one state is strictly larger than another.
type load struct{ inFlight, queued, retx int }

func loadOf(n *noc.Network) load {
	l := load{inFlight: int(n.Stats().InFlight()), retx: n.PendingRetx()}
	for id := 0; id < n.Topo().Nodes(); id++ {
		l.queued += n.NI(id).QueuedPackets()
	}
	return l
}

// TestSnapshotIntoRecycledEqualsFresh is the differential check on
// snapshot recycling: a snapshot written into storage that previously
// held a different, larger state — more buffered flits, longer NI
// queues, and with retransmission armed a fuller retransmission buffer
// and duplicate-suppression windows — must restore to exactly what a
// fresh Snapshot of the same state restores to: the same canonical
// bytes, state hash, statistics and 200-cycle continuation. Anything
// the recycled path forgets to overwrite or truncate shows up here.
func TestSnapshotIntoRecycledEqualsFresh(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *noc.Network
		peak  sim.Cycle
		retx  bool
	}{
		{name: "loaded-2x2", peak: 100, build: func(t *testing.T) *noc.Network {
			src := traffic.NewSynthetic(4, 0.5, traffic.Uniform(4), traffic.Bimodal(1, 5, 0.6), 31)
			src.StopAt(100)
			return newFaultNet(t, 2, 2, noc.RetxConfig{}, 1, src)
		}},
		{name: "faulted-retx-4x4", peak: 200, retx: true, build: func(t *testing.T) *noc.Network {
			src := traffic.NewSynthetic(16, 0.12, traffic.Uniform(16), traffic.FixedSize(2), 23)
			src.StopAt(200)
			n := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 120, MaxRetries: 4}, 1, src)
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
			return n
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			defer n.Close()
			n.Run(tc.peak)
			big := loadOf(n)
			bigSnap := n.Snapshot()

			// Drain towards a smaller state that still holds traffic.
			for i := 0; ; i++ {
				n.Step()
				l := loadOf(n)
				if l.queued == 0 && l.inFlight < big.inFlight/2 && (!tc.retx || l.retx < big.retx) {
					break
				}
				if i == 2000 {
					t.Fatalf("network never shrank below its peak load %+v (now %+v)", big, l)
				}
			}
			small := loadOf(n)
			if small.inFlight == 0 || big.queued == 0 || (tc.retx && big.retx == 0) {
				t.Fatalf("case exercises nothing: peak %+v, snapshot state %+v", big, small)
			}

			fresh := n.Snapshot()
			recycled := n.SnapshotInto(bigSnap)
			if recycled != bigSnap {
				t.Error("SnapshotInto did not reuse same-shape storage")
			}
			wantCanon := n.AppendCanonical(nil)
			wantHash := n.StateHash()
			wantStats := n.Stats().Summary()
			want := trajectory(n, 200)
			for _, snap := range []struct {
				name string
				s    *noc.Snapshot
			}{{"fresh", fresh}, {"recycled", recycled}} {
				n.Restore(snap.s)
				if got := n.AppendCanonical(nil); !bytes.Equal(got, wantCanon) {
					t.Errorf("%s: canonical bytes differ from the state snapshotted", snap.name)
				}
				if got := n.StateHash(); got != wantHash {
					t.Errorf("%s: state hash %016x, want %016x", snap.name, got, wantHash)
				}
				if got := n.Stats().Summary(); got != wantStats {
					t.Errorf("%s: statistics differ:\n--- want ---\n%s--- got ---\n%s", snap.name, wantStats, got)
				}
				if got := trajectory(n, 200); got != want {
					t.Errorf("%s: continuation diverged:\n--- want ---\n%s--- got ---\n%s", snap.name, want, got)
				}
			}
		})
	}
}

// TestSnapshotIntoIgnoresOtherShapes offers SnapshotInto storage taken
// from networks of another node count and another VC and class count:
// it must allocate afresh and leave the offered snapshot intact — never
// panic, never half-overwrite it — and Restore must refuse a snapshot
// of the wrong shape outright.
func TestSnapshotIntoIgnoresOtherShapes(t *testing.T) {
	src := traffic.NewSynthetic(16, 0.1, traffic.Uniform(16), traffic.FixedSize(3), 9)
	src.StopAt(80)
	donor := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 200, MaxRetries: 2}, 1, src)
	defer donor.Close()
	donor.Run(60)
	offered := donor.Snapshot()
	donorCanon := donor.AppendCanonical(nil)
	donor.Run(40)

	slim := router.DefaultConfig()
	slim.FaultTolerant = true
	slim.VCs, slim.Classes = 2, 1
	for _, tc := range []struct {
		name string
		cfg  noc.Config
	}{
		{"fewer-nodes", noc.Config{Width: 2, Height: 2, Router: donor.Router(0).Config(), Workers: 1}},
		{"fewer-vcs", noc.Config{Width: 4, Height: 4, Router: slim, Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := tc.cfg.Width * tc.cfg.Height
			tr := traffic.NewSynthetic(nodes, 0.1, traffic.Uniform(nodes), traffic.FixedSize(2), 3)
			n := noc.MustNew(tc.cfg, tr)
			defer n.Close()
			n.Run(40)
			canon := n.AppendCanonical(nil)
			got := n.SnapshotInto(offered)
			if got == offered {
				t.Fatal("SnapshotInto reused storage of another shape")
			}
			n.Run(30)
			n.Restore(got)
			if !bytes.Equal(n.AppendCanonical(nil), canon) {
				t.Error("the freshly allocated snapshot does not restore the state it was taken in")
			}
			donor.Restore(offered)
			if !bytes.Equal(donor.AppendCanonical(nil), donorCanon) {
				t.Error("the offered snapshot was modified although its shape did not fit")
			}
			defer func() {
				if recover() == nil {
					t.Error("Restore accepted a snapshot of another shape")
				}
			}()
			n.Restore(offered)
		})
	}
}

// TestStatsPointerSurvivesRestore holds the collector Stats returned
// across a Restore: it must be the network's collector still, reading
// the restored values, not a stale object frozen at pre-restore ones.
func TestStatsPointerSurvivesRestore(t *testing.T) {
	src := traffic.NewSynthetic(16, 0.1, traffic.Uniform(16), traffic.FixedSize(2), 13)
	n := newFaultNet(t, 4, 4, noc.RetxConfig{}, 1, src)
	defer n.Close()
	held := n.Stats()
	n.Run(60)
	snap := n.Snapshot()
	want := held.Summary()
	n.Run(60)
	if held.Summary() == want {
		t.Fatal("statistics did not move after the snapshot; case exercises nothing")
	}
	n.Restore(snap)
	if n.Stats() != held {
		t.Error("Restore replaced the network's collector")
	}
	if got := held.Summary(); got != want {
		t.Errorf("held collector reads stale statistics after Restore:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	n.Run(10)
	if held.Created() != n.Stats().Created() || held.Created() == 0 {
		t.Error("held collector no longer follows the network")
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
