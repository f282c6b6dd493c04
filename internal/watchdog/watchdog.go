// Package watchdog provides an online fault-detection layer for the NoC,
// standing in for the NoCAlert-style mechanism the paper assumes
// (reference [18]: "an on-line and real-time fault detection mechanism").
//
// The paper's router *tolerates* faults but deliberately leaves
// *detection* to prior work. This package closes that loop at the
// architectural level: a Monitor watches every input VC of every router
// and flags any VC that holds flits yet makes no progress for longer
// than a threshold, localizing the suspected pipeline stage from the
// VC's global state ('G' field):
//
//	stuck in Routing   → RC stage suspect
//	stuck in VCAlloc   → VA stage suspect
//	stuck in Active    → SA or XB stage suspect (reported as SA; the two
//	                     share the switch datapath)
//
// Like any timeout-based detector, the threshold trades detection
// latency against false positives under congestion: a VC legitimately
// blocked behind a saturated hotspot looks identical to one blocked by a
// dead arbiter until the hotspot drains. Choose thresholds well above
// the longest legitimate stall at the operating load.
package watchdog

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// Suspect is one localized fault report.
type Suspect struct {
	// Router is the node id of the suspect router.
	Router int
	// Port is the input port whose VC stopped progressing.
	Port topology.Port
	// VC is the stuck virtual channel index.
	VC int
	// Stage is the localized pipeline stage.
	Stage core.StageID
	// Since is the cycle the VC last made progress.
	Since sim.Cycle
	// Detected is the cycle the watchdog raised the report.
	Detected sim.Cycle
}

// String implements fmt.Stringer.
func (s Suspect) String() string {
	return fmt.Sprintf("router %d %v/vc%d: %v stage stuck since cycle %d (detected %d)",
		s.Router, s.Port, s.VC, s.Stage, s.Since, s.Detected)
}

// vcKey identifies one observed VC.
type vcKey struct {
	router int
	port   topology.Port
	vc     int
}

type vcState struct {
	g        vc.GState
	length   int
	lastMove sim.Cycle
	reported bool
}

// Monitor is a network-wide watchdog.
type Monitor struct {
	net *noc.Network
	// Threshold is how many cycles a non-empty VC may sit in one state
	// before being reported.
	Threshold sim.Cycle

	state    map[vcKey]*vcState
	suspects []Suspect
	obs      *obs.Observer
}

// New attaches a monitor with the given stall threshold to net.
func New(net *noc.Network, threshold sim.Cycle) *Monitor {
	m := &Monitor{net: net, Threshold: threshold, state: map[vcKey]*vcState{}, obs: net.Obs()}
	net.AddHook(m.hook)
	return m
}

// hook samples every VC once per cycle.
func (m *Monitor) hook(c sim.Cycle) {
	topo := m.net.Topo()
	for node := 0; node < topo.Nodes(); node++ {
		r := m.net.Router(node)
		cfg := r.Config()
		for p := 0; p < cfg.Ports; p++ {
			port := topology.Port(p)
			for v := 0; v < cfg.VCs; v++ {
				q := r.InputVC(port, v)
				key := vcKey{router: node, port: port, vc: v}
				st := m.state[key]
				if st == nil {
					st = &vcState{lastMove: c}
					m.state[key] = st
				}
				if q.G != st.g || q.Len() != st.length {
					st.g, st.length = q.G, q.Len()
					st.lastMove = c
					st.reported = false
					continue
				}
				if q.Empty() || q.G == vc.Idle || st.reported {
					continue
				}
				if c-st.lastMove < m.Threshold {
					continue
				}
				st.reported = true
				stage := localize(q.G)
				sus := Suspect{
					Router:   node,
					Port:     port,
					VC:       v,
					Stage:    stage,
					Since:    st.lastMove,
					Detected: c,
				}
				m.suspects = append(m.suspects, sus)
				m.obs.RecordFault(obs.KFaultsDetected, obs.EvFaultDetect,
					c, node, p, v, int32(stage), "")
				// A new suspect is exactly the anomaly the flight recorder
				// exists for: freeze the recent history before the stuck
				// traffic ages it out of the ring.
				if o := m.obs; o != nil {
					if f := o.Flight; f != nil {
						f.Trigger(c, "watchdog: "+sus.String())
					}
				}
			}
		}
	}
}

// localize maps a stuck VC state to the pipeline stage that failed to
// serve it.
func localize(g vc.GState) core.StageID {
	switch g {
	case vc.Routing:
		return core.StageRC
	case vc.VCAlloc:
		return core.StageVA
	default:
		return core.StageSA
	}
}

// Suspects returns all reports raised so far, in detection order.
func (m *Monitor) Suspects() []Suspect {
	out := make([]Suspect, len(m.suspects))
	copy(out, m.suspects)
	return out
}

// Clear discards accumulated reports (state tracking continues).
func (m *Monitor) Clear() { m.suspects = m.suspects[:0] }
