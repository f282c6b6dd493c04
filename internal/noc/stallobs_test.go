// Observability-tier suite: stall attribution, windowed link heatmaps,
// and the flight recorder ride the parallel stepper's bit-exactness
// guarantee — every counter, window bucket, and dump must be identical
// at any Config.Workers, on every topology family.
package noc

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// obsOutcome bundles every congestion-observability artifact one run
// produces, for cross-worker comparison.
type obsOutcome struct {
	stalls  []obs.RouterTotals
	samples []obs.Sample
	window  obs.WindowSnapshot
	dump    obs.Dump
	spans   obs.SpanSet
	summary string
}

// runObsCase runs one seeded workload with the full observability tier
// attached (tracer, windows, flight recorder) and returns everything.
func runObsCase(t *testing.T, topoKind string, workers int, linkFault bool) obsOutcome {
	t.Helper()
	tp, err := topology.New(topoKind, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(1 << 19)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Obs = o
	o.Windows = obs.NewWindows(tp.Nodes(), rc.Ports, rc.VCs, 256, 8)
	o.Flight = obs.NewFlightRecorder(tp.Nodes(), 64)
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 42)
	src.StopAt(1500)
	n := MustNew(Config{
		Width: 4, Height: 4, Topo: topoKind,
		Router: rc, Warmup: 100, Workers: workers,
	}, src)
	defer n.Close()
	if linkFault {
		if err := n.SetLinkFault(5, topology.East, true); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(1500)
	if !n.Drain(30000) {
		t.Fatalf("workers=%d: did not drain, %d in flight", workers, n.Stats().InFlight())
	}
	dump, ok := n.TriggerFlightDump("worker-invariance check")
	if !ok {
		t.Fatalf("workers=%d: flight recorder attached but no dump captured", workers)
	}
	return obsOutcome{
		stalls:  o.Metrics.PerRouter(),
		samples: o.Metrics.Snapshot(),
		window:  o.Windows.Snapshot(),
		dump:    dump,
		spans:   n.Spans(),
		summary: n.Stats().Summary(),
	}
}

// stallTotals sums the four stall-attribution counters over all routers.
func stallTotals(rts []obs.RouterTotals) [obs.NumStallKinds]uint64 {
	var out [obs.NumStallKinds]uint64
	for _, rt := range rts {
		for k := 0; k < obs.NumStallKinds; k++ {
			out[k] += rt.Total[obs.StallKind(k).Kind()]
		}
	}
	return out
}

// TestStallObsWorkersInvariant is the acceptance check for the
// congestion tier: on a faulted mesh, stall counters, the full metrics
// snapshot, window buckets, the flight dump, and span reconstruction
// must be bit-exact across Workers in {1, 2, 4, 8}.
func TestStallObsWorkersInvariant(t *testing.T) {
	ref := runObsCase(t, "mesh", 1, true)
	tot := stallTotals(ref.stalls)
	if tot[obs.StallCreditStarved] == 0 || tot[obs.StallArbLost] == 0 {
		t.Fatalf("faulted workload produced no credit/arb stalls: %v", tot)
	}
	if tot[obs.StallRouteBlocked] == 0 {
		t.Fatalf("dead link produced no route-blocked stalls: %v", tot)
	}
	if len(ref.dump.Events) == 0 {
		t.Fatal("flight dump is empty")
	}
	if len(ref.window.Buckets) == 0 || ref.window.Cycles() == 0 {
		t.Fatal("window snapshot is empty")
	}
	for _, w := range []int{2, 4, 8} {
		got := runObsCase(t, "mesh", w, true)
		if !reflect.DeepEqual(ref.stalls, got.stalls) {
			t.Errorf("workers=%d: per-router stall totals diverged: %v vs %v",
				w, stallTotals(ref.stalls), stallTotals(got.stalls))
		}
		if !reflect.DeepEqual(ref.samples, got.samples) {
			t.Errorf("workers=%d: metrics snapshot diverged (%d vs %d series)",
				w, len(ref.samples), len(got.samples))
		}
		if !reflect.DeepEqual(ref.window, got.window) {
			t.Errorf("workers=%d: window snapshot diverged", w)
		}
		if ref.dump.Reason != got.dump.Reason || !reflect.DeepEqual(ref.dump.Events, got.dump.Events) {
			t.Errorf("workers=%d: flight dump diverged (%d vs %d events)",
				w, len(ref.dump.Events), len(got.dump.Events))
		}
		if !reflect.DeepEqual(ref.spans, got.spans) {
			t.Errorf("workers=%d: span sets diverged", w)
		}
		if ref.summary != got.summary {
			t.Errorf("workers=%d: stats summary diverged:\n%s\nvs\n%s", w, ref.summary, got.summary)
		}
	}
}

// obsDigest folds every observed artefact of a run — the full metrics
// snapshot, the retained windows and the flight dump — into one FNV-1a
// value.
func obsDigest(out obsOutcome) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(len(out.samples)))
	for _, s := range out.samples {
		put(uint64(s.Key.Kind))
		put(uint64(int64(s.Key.Router)))
		put(uint64(int64(s.Key.Port)))
		put(uint64(int64(s.Key.VC)))
		put(uint64(s.Value))
		flag(s.IsGauge)
	}
	w := out.window
	put(uint64(w.Nodes))
	put(uint64(w.Ports))
	put(uint64(w.VCs))
	put(uint64(w.BucketCycles))
	put(uint64(len(w.Buckets)))
	for _, b := range w.Buckets {
		put(uint64(b.Start))
		put(uint64(b.Cycles))
		flag(b.Partial)
		for _, c := range b.Util {
			put(uint64(c))
		}
		for _, c := range b.Stall {
			put(uint64(c))
		}
	}
	put(uint64(out.dump.Cycle))
	h.Write([]byte(out.dump.Reason))
	put(uint64(len(out.dump.Events)))
	for _, e := range out.dump.Events {
		put(uint64(e.Cycle))
		put(uint64(e.Kind))
		put(uint64(int64(e.Router)))
		put(uint64(int64(e.Port)))
		put(uint64(int64(e.VC)))
		put(uint64(int64(e.Arg)))
		put(uint64(int64(e.Arg2)))
		h.Write([]byte(e.Detail))
		put(uint64(len(e.Detail)))
	}
	return h.Sum64()
}

// canonicalCmp is the all-field order flight dumps were sorted in before
// the event store read out in merge order: cycle, router, kind, port,
// VC, args, detail.
func canonicalCmp(a, b obs.Event) int {
	return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Router, b.Router),
		cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Port, b.Port), cmp.Compare(a.VC, b.VC),
		cmp.Compare(a.Arg, b.Arg), cmp.Compare(a.Arg2, b.Arg2), cmp.Compare(a.Detail, b.Detail))
}

// TestStallObsGoldenDigest pins what the faulted 4×4 case observes, not
// just that worker counts agree on it. The canonical digest, over the
// dump sorted by every field, was recorded at 6a72585, the last commit
// whose stall scan walked every VC, whose counters sat one to a map entry
// and whose flight lanes stored whole Events; the merged digest is the
// dump as Trigger returns it, recorded when the tracer and the flight
// recorder became one store. A change to how observations are collected
// must leave both alone; a change to what is observed moves them on
// purpose.
func TestStallObsGoldenDigest(t *testing.T) {
	const (
		canonical = 0x5ec9c01f5efd814e
		merged    = 0xb7caddd6da3f41c6
	)
	out := runObsCase(t, "mesh", 1, true)
	if got := obsDigest(out); got != merged {
		t.Errorf("observed-artefact digest %#x, want %#x", got, uint64(merged))
	}
	out.dump.Events = slices.Clone(out.dump.Events)
	slices.SortFunc(out.dump.Events, canonicalCmp)
	if got := obsDigest(out); got != canonical {
		t.Errorf("observed-artefact digest over the canonically sorted dump %#x, want %#x", got, uint64(canonical))
	}
}

// TestHeatmapWindowsTopologiesWorkers runs the windowed heatmap on the
// torus and the mesh: buckets must be populated, cover the run, and
// stay bit-exact across worker counts.
func TestHeatmapWindowsTopologiesWorkers(t *testing.T) {
	cases := []struct {
		name string
		topo string
	}{
		{name: "torus", topo: "torus"},
		{name: "mesh", topo: "mesh"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := runObsCase(t, tc.topo, 1, false)
			if len(ref.window.Buckets) == 0 {
				t.Fatal("no window buckets retained")
			}
			var flits uint64
			for _, lt := range ref.window.LinkTotals() {
				flits += lt.Flits
			}
			if flits == 0 {
				t.Fatal("window recorded no link flits")
			}
			// Fault-free runs never block on a missing route.
			if tot := stallTotals(ref.stalls); tot[obs.StallRouteBlocked] != 0 || tot[obs.StallFaultDrain] != 0 {
				t.Fatalf("fault-free %s run shows route/drain stalls: %v", tc.name, tot)
			}
			for _, w := range []int{2, 4, 8} {
				got := runObsCase(t, tc.topo, w, false)
				if !reflect.DeepEqual(ref.window, got.window) {
					t.Errorf("workers=%d: %s window snapshot diverged", w, tc.name)
				}
				if !reflect.DeepEqual(ref.stalls, got.stalls) {
					t.Errorf("workers=%d: %s stall totals diverged", w, tc.name)
				}
			}
		})
	}
}

// TestSpansTopologiesWorkers extends hop-span reconstruction coverage to
// the torus and the mesh: every packet reconstructs losslessly, hop
// chains are contiguous, the sets are worker-invariant, and they are the
// sets the global event ring reconstructed (digests recorded at d927909,
// before the tracer became per-router lanes; the mesh row ran there
// under a second topology name that stepped exactly as the mesh does).
func TestSpansTopologiesWorkers(t *testing.T) {
	cases := []struct {
		name   string
		topo   string
		digest uint64
	}{
		{name: "torus", topo: "torus", digest: 0xee960b87128037c4},
		{name: "mesh", topo: "mesh", digest: 0xfbb8447142c9d42c},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := runObsCase(t, tc.topo, 1, false)
			if len(ref.spans.Packets) == 0 {
				t.Fatal("no packets reconstructed")
			}
			if got := spanDigest(ref.spans); got != tc.digest {
				t.Errorf("span digest %#x, want %#x", got, tc.digest)
			}
			if ref.spans.Orphans != 0 || ref.spans.Dropped != 0 || ref.spans.Incomplete != 0 {
				t.Fatalf("lossy reconstruction: %d orphans, %d dropped, %d incomplete",
					ref.spans.Orphans, ref.spans.Dropped, ref.spans.Incomplete)
			}
			for _, p := range ref.spans.Packets {
				if len(p.Hops) == 0 {
					t.Fatalf("packet %d->%d has no hops", p.Src, p.Dst)
				}
				for i := 1; i < len(p.Hops); i++ {
					if p.Hops[i].Arrive <= p.Hops[i-1].SACycle {
						t.Fatalf("packet %d->%d hop %d arrives at %d, before upstream grant %d",
							p.Src, p.Dst, i, p.Hops[i].Arrive, p.Hops[i-1].SACycle)
					}
				}
			}
			for _, w := range []int{4, 8} {
				got := runObsCase(t, tc.topo, w, false)
				if !reflect.DeepEqual(ref.spans, got.spans) {
					t.Errorf("workers=%d: %s span sets diverged", w, tc.name)
				}
			}
		})
	}
}

// TestWindowRollTracksNetworkCycle pins the serial-hook contract: the
// window ring is rolled exactly once per Step, so the snapshot covers
// every simulated cycle with bucket boundaries at multiples of the
// bucket width.
func TestWindowRollTracksNetworkCycle(t *testing.T) {
	tp, err := topology.New("mesh", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(1)
	o.Tracer.SetEnabled(false)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Obs = o
	o.Windows = obs.NewWindows(tp.Nodes(), rc.Ports, rc.VCs, 100, 4)
	n := MustNew(Config{Width: 4, Height: 4, Router: rc}, nil)
	defer n.Close()
	n.Run(250)
	s := o.Windows.Snapshot()
	if got := s.Cycles(); got != 250 {
		t.Fatalf("snapshot covers %d cycles, want 250", got)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("retained %d buckets, want 3 (two full + partial)", len(s.Buckets))
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.Start != 200 || last.Cycles != 50 || !last.Partial {
		t.Fatalf("in-progress bucket = start %d, %d cycles, partial=%v; want 200, 50, true",
			last.Start, last.Cycles, last.Partial)
	}
	if n.Now() != sim.Cycle(250) {
		t.Fatalf("network at cycle %d, want 250", n.Now())
	}
}
