package noc

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/router"
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

// TestObsCountersMatchRouterCounters cross-checks the obs registry
// against the router's own mechanism tally: the two are maintained at
// the same instrumentation sites, so any divergence means a counter was
// bound to the wrong key.
func TestObsCountersMatchRouterCounters(t *testing.T) {
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

	var wantBypass, wantBorrow, wantSecondary, wantFlits uint64
	for id := 0; id < 16; id++ {
		c := n.Router(id).Counters
		wantBypass += c.SABypassGrants
		wantBorrow += c.VA1Borrows
		wantSecondary += c.XBSecondary
		wantFlits += c.FlitsRouted
	}
	if wantBypass == 0 || wantBorrow == 0 || wantSecondary == 0 {
		t.Fatalf("fault mechanisms not engaged: bypass=%d borrow=%d secondary=%d",
			wantBypass, wantBorrow, wantSecondary)
	}

	sum := func(k obs.Kind) uint64 {
		var s uint64
		for _, r := range o.Metrics.PerRouter() {
			s += r.Total[k]
		}
		return s
	}
	checks := []struct {
		kind obs.Kind
		want uint64
	}{
		{obs.KSABypassGrants, wantBypass},
		{obs.KVA1Borrows, wantBorrow},
		{obs.KXBSecondary, wantSecondary},
		{obs.KFlitsRouted, wantFlits},
	}
	for _, c := range checks {
		if got := sum(c.kind); got != c.want {
			t.Errorf("%v = %d, want %d (router tally)", c.kind, got, c.want)
		}
	}

	// NI accounting must match the stats collector.
	if got, want := sum(obs.KNIPacketsOffered), n.Stats().Created(); got != want {
		t.Errorf("ni.packets_offered = %d, want %d", got, want)
	}
	if got, want := sum(obs.KNIPacketsEjected), n.Stats().Ejected(); got != want {
		t.Errorf("ni.packets_ejected = %d, want %d", got, want)
	}

	// Link counters must match the network's own per-link tally.
	var wantLink uint64
	for id := 0; id < 16; id++ {
		wantLink += n.RouterFlits(id)
	}
	if got := sum(obs.KLinkFlits); got != wantLink {
		t.Errorf("link.flits = %d, want %d", got, wantLink)
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
