package noc

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// obsCfg returns a 4×4 protected-mesh config with observability enabled.
func obsCfg(o *obs.Observer) Config {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Obs = o
	return Config{Width: 4, Height: 4, Router: rc}
}

// TestObsNodeCountersMatchCollector holds the NI and link series of a
// faulted run to what the network records elsewhere: packets offered and
// ejected to the stats collector, and link flits to the crossbar's
// traversals and to the run's totals.
func TestObsNodeCountersMatchCollector(t *testing.T) {
	o := obs.New(1 << 14)
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 9)
	n := MustNew(obsCfg(o), src)

	// An SA1 fault engages the bypass path (and transfers); a VA1 fault
	// engages arbiter borrowing; an XB fault engages the secondary path.
	rt := n.Router(5)
	rt.SetSA1Fault(topology.East, true)
	rt.SetVA1Fault(topology.North, 0, true)
	rt.SetXBFault(topology.West, true)
	n.Run(4000)

	sum := func(k obs.Kind) uint64 {
		var s uint64
		for _, r := range o.Metrics.PerRouter() {
			s += r.Total[k]
		}
		return s
	}
	if bypass, borrow, secondary := sum(obs.KSABypassGrants), sum(obs.KVA1Borrows), sum(obs.KXBSecondary); bypass == 0 || borrow == 0 || secondary == 0 {
		t.Fatalf("fault mechanisms not engaged: bypass=%d borrow=%d secondary=%d", bypass, borrow, secondary)
	}

	// NI accounting must match the stats collector.
	if got, want := sum(obs.KNIPacketsOffered), n.Stats().Created(); got != want {
		t.Errorf("ni.packets_offered = %d, want %d", got, want)
	}
	if got, want := sum(obs.KNIPacketsEjected), n.Stats().Ejected(); got != want {
		t.Errorf("ni.packets_ejected = %d, want %d", got, want)
	}

	// Without link faults every flit that crosses a crossbar crosses one
	// link or ejects: the link counters sum to the crossbar's. The totals
	// are the run's, recorded at 9c84917.
	if got, routed := sum(obs.KLinkFlits), sum(obs.KFlitsRouted); got != routed || got != 29825 {
		t.Errorf("link.flits = %d, want xb.flits_routed (%d) and 29825", got, routed)
	}
	var ejected uint64
	for _, s := range o.Metrics.Snapshot() {
		if s.Key.Kind == obs.KLinkFlits && s.Key.Port == int8(topology.Local) {
			ejected += uint64(s.Value)
		}
	}
	if ejected != 8159 {
		t.Errorf("link.flits on the Local ports = %d, want 8159", ejected)
	}
}

// TestObsTraceCapturesFaultMechanisms runs a faulty mesh and checks the
// Chrome trace contains the borrow/bypass events the paper's analysis
// reasons about.
func TestObsTraceCapturesFaultMechanisms(t *testing.T) {
	o := obs.New(1 << 15)
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 11)
	n := MustNew(obsCfg(o), src)
	n.Router(5).SetSA1Fault(topology.East, true)
	n.Router(5).SetVA1Fault(topology.North, 0, true)
	n.Run(3000)

	var buf bytes.Buffer
	if err := o.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Pid  int32  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	found := map[string]bool{}
	for _, e := range doc.TraceEvents {
		found[e.Name] = true
	}
	for _, want := range []string{"SA bypass", "VA borrow", "XB traverse", "NI eject"} {
		if !found[want] {
			t.Errorf("trace missing %q events (got %v)", want, keys(found))
		}
	}
}

// TestObsDisabledNetworkRuns is the no-op guard at network level: a nil
// Obs must simulate identically and leave no handles bound.
func TestObsDisabledNetworkRuns(t *testing.T) {
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 9)
	n := MustNew(obsCfg(nil), src)
	n.Run(1000)
	if n.Obs() != nil {
		t.Fatal("Obs() should be nil when disabled")
	}
	if n.Stats().Ejected() == 0 {
		t.Fatal("disabled-obs network delivered nothing")
	}
}

// TestNewRejectsMismatchedObserver pins the geometry check: a window ring
// or flight recorder sized for another network used to run — node 5's
// window cells aliasing the next bucket's node 1 — until an index ran off
// the ring thousands of cycles later, and an undersized recorder funnelled
// every unsized router into its one global lane. New must refuse them
// with one line naming both shapes.
func TestNewRejectsMismatchedObserver(t *testing.T) {
	cases := []struct {
		name    string
		windows func() *obs.Windows
		flight  func() *obs.FlightRecorder
		wantErr []string // substrings of the error; nil: New must succeed
	}{
		{name: "matching",
			windows: func() *obs.Windows { return obs.NewWindows(16, 5, 4, 256, 4) },
			flight:  func() *obs.FlightRecorder { return obs.NewFlightRecorder(16, 8) }},
		{name: "windows too small",
			windows: func() *obs.Windows { return obs.NewWindows(4, 5, 4, 256, 4) },
			wantErr: []string{"Windows sized for 4 nodes, 5 ports, 4 VCs", "network of 16 nodes, 5 ports, 4 VCs"}},
		{name: "windows too large",
			windows: func() *obs.Windows { return obs.NewWindows(64, 5, 4, 256, 4) },
			wantErr: []string{"Windows sized for 64 nodes", "network of 16 nodes"}},
		{name: "windows wrong VCs",
			windows: func() *obs.Windows { return obs.NewWindows(16, 5, 2, 256, 4) },
			wantErr: []string{"16 nodes, 5 ports, 2 VCs", "16 nodes, 5 ports, 4 VCs"}},
		{name: "flight too small",
			flight:  func() *obs.FlightRecorder { return obs.NewFlightRecorder(4, 8) },
			wantErr: []string{"FlightRecorder sized for 4 nodes", "network of 16 nodes"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New(0)
			if tc.windows != nil {
				o.Windows = tc.windows()
			}
			if tc.flight != nil {
				o.Flight = tc.flight()
			}
			src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 9)
			n, err := New(obsCfg(o), src)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("New refused a matching observer: %v", err)
				}
				defer n.Close()
				n.Run(2000)
				if n.Stats().Ejected() == 0 {
					t.Fatal("matching observer: nothing delivered")
				}
				return
			}
			if err == nil {
				n.Close()
				t.Fatal("New accepted the observer")
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("error spans lines: %q", err)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	//nocvet:ignore determinism collected keys are sorted before use
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRCCountsOnDropPath pins what the RC series count when routing
// finds a destination cut off: a computation counts once it yields a
// route, so the duplicate unit's computation that ends in a drop counts
// in neither rc.computes nor rc.duplicate_uses. Router 1's West RC
// primary is faulty; a packet from node 0 to the north-east corner is in
// router 1's input latch when the corner's two links die, so router 1's
// duplicate unit finds no path and drops it. A second packet, from node
// 0 to node 2, then takes the duplicate unit to a route.
func TestRCCountsOnDropPath(t *testing.T) {
	o := obs.New(0)
	cfg := obsCfg(o)
	cfg.Workers = 1
	n := MustNew(cfg, nil)
	defer n.Close()
	n.Router(1).SetRCFault(topology.West, 0, true)
	cut := false
	n.AddHook(func(c sim.Cycle) {
		if flits, _ := n.Router(1).Inputs(); !cut && len(flits) > 0 {
			cut = true
			for _, p := range []topology.Port{topology.West, topology.South} {
				if err := n.SetLinkFault(3, p, true); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	n.Inject(0, &flit.Packet{Dst: 3, Class: flit.Request, Size: 1})
	n.Run(20)
	if !cut {
		t.Fatal("the packet for node 3 never reached router 1")
	}
	n.Inject(0, &flit.Packet{Dst: 2, Class: flit.Request, Size: 1})
	if !n.Drain(200) {
		t.Fatalf("did not drain: %d in flight", n.Stats().InFlight())
	}
	if s := n.Stats(); s.Dropped() != 1 || s.Ejected() != 1 {
		t.Fatalf("dropped %d and delivered %d packets, want 1 and 1", s.Dropped(), s.Ejected())
	}
	want := map[obs.Key]int64{
		{Kind: obs.KRCComputes, Router: 0, Port: int8(topology.Local), VC: obs.NoVC}:     2,
		{Kind: obs.KRCComputes, Router: 1, Port: int8(topology.West), VC: obs.NoVC}:      1,
		{Kind: obs.KRCComputes, Router: 2, Port: int8(topology.West), VC: obs.NoVC}:      1,
		{Kind: obs.KRCDuplicateUses, Router: 1, Port: int8(topology.West), VC: obs.NoVC}: 1,
		{Kind: obs.KDropsUnreachable, Router: 1, Port: obs.NoPort, VC: obs.NoVC}:         1,
	}
	for _, s := range o.Metrics.Snapshot() {
		switch s.Key.Kind {
		case obs.KRCComputes, obs.KRCDuplicateUses, obs.KReroutes, obs.KDropsUnreachable:
			if s.Value != want[s.Key] {
				t.Errorf("%v at router %d port %d = %d, want %d", s.Key.Kind, s.Key.Router, s.Key.Port, s.Value, want[s.Key])
			}
		}
	}
}
