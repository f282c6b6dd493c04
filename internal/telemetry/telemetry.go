// Package telemetry exposes a running simulation's state over HTTP for
// long-running sims and campaigns: a Prometheus-text-format /metrics
// endpoint (observability counters and gauges, latency histogram
// buckets, in-flight gauges) and a JSON /status snapshot.
//
// # Safety against the parallel stepper
//
// Two data sources feed a scrape, with different synchronization rules:
//
//   - obs.Metrics is safe to read live from any goroutine — counters and
//     gauges are atomics and registry resolution is locked — so /metrics
//     reads it directly and a scrape always sees up-to-date counters,
//     even mid-Step.
//   - stats.Collector is owned by the simulation loop and is not
//     synchronized. The server therefore never touches a live collector:
//     the simulation publishes immutable stats.Snapshot values from a
//     cycle hook (noc cycle hooks run in Step's serial pre-phase, on the
//     Run goroutine), and scrapes load the latest snapshot through an
//     atomic pointer.
//
// This split is what makes scraping safe while the network steps in
// parallel (noc.Config.Workers > 1); the race-detector test pins it.
package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

// Progress is one long-running task's completion state, shown by
// campaign drivers (trials done out of total).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Server holds the state the HTTP endpoints render. The zero value is
// not usable; call NewServer.
type Server struct {
	metrics *obs.Metrics
	windows atomic.Pointer[obs.Windows]
	snap    atomic.Pointer[stats.Snapshot]
	cycle   atomic.Uint64

	mu       sync.Mutex
	progress map[string]Progress
}

// NewServer returns a server rendering the given metrics registry
// (nil when the simulation runs without observability — the registry
// section of /metrics is then empty).
func NewServer(m *obs.Metrics) *Server {
	return &Server{metrics: m, progress: map[string]Progress{}}
}

// SetWindows attaches a windowed-utilization ring; /heatmap and the
// gonoc_link_window_* gauge families render it. Windows cells are
// atomics, so scrapes may read the ring live while workers add samples
// (a scrape racing a bucket roll sees a partially-zeroed newest bucket,
// which the snapshot marks partial anyway).
func (s *Server) SetWindows(w *obs.Windows) { s.windows.Store(w) }

// Publish makes st the snapshot served by /metrics and /status. Call it
// from the simulation goroutine (e.g. a noc cycle hook); scrapes on
// other goroutines observe it atomically.
func (s *Server) Publish(st stats.Snapshot) { s.snap.Store(&st) }

// SetCycle updates the current-cycle gauge.
func (s *Server) SetCycle(c sim.Cycle) { s.cycle.Store(uint64(c)) }

// SetProgress updates a named task's completion gauge pair, for
// campaign drivers reporting trials done out of total.
func (s *Server) SetProgress(name string, done, total int) {
	s.mu.Lock()
	s.progress[name] = Progress{Done: done, Total: total}
	s.mu.Unlock()
}

// progressSorted returns the progress entries in name order.
func (s *Server) progressSorted() (names []string, by map[string]Progress) {
	s.mu.Lock()
	by = make(map[string]Progress, len(s.progress))
	for k, v := range s.progress {
		by[k] = v
	}
	s.mu.Unlock()
	names = make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	return names, by
}

// Status is the /status JSON document.
type Status struct {
	// Cycle is the simulation cycle most recently reported.
	Cycle uint64 `json:"cycle"`
	// Stats is the latest published collector snapshot, if any.
	Stats *stats.Snapshot `json:"stats,omitempty"`
	// Progress holds the campaign progress gauges, if any.
	Progress map[string]Progress `json:"progress,omitempty"`
}

// HeatmapLink is one link's recent-window activity in the /heatmap
// document: flit counts (total and per VC) and the stall mix, summed
// over the retained window ring.
type HeatmapLink struct {
	Node  int      `json:"node"`
	Port  int      `json:"port"`
	Flits uint64   `json:"flits"`
	PerVC []uint64 `json:"per_vc"`
	// Stalls is indexed like the top-level StallKinds list.
	Stalls []uint64 `json:"stalls"`
}

// Heatmap is the /heatmap JSON document: the windowed link-utilization
// ring reduced to per-link totals over the cycles it still covers.
type Heatmap struct {
	Cycle        uint64 `json:"cycle"`
	BucketCycles uint64 `json:"bucket_cycles"`
	Buckets      int    `json:"buckets"`
	// WindowCycles is how many cycles the retained buckets cover.
	WindowCycles uint64 `json:"window_cycles"`
	// StallKinds names the indices of every link's Stalls array.
	StallKinds []string      `json:"stall_kinds"`
	Links      []HeatmapLink `json:"links"`
}

// NewHeatmap reduces a window snapshot taken at cycle to the /heatmap
// document, the one `noctool observe heatmap -json` prints too. top > 0 keeps
// only the top links by flit count.
func NewHeatmap(cycle sim.Cycle, snap obs.WindowSnapshot, top int) Heatmap {
	doc := Heatmap{
		Cycle:        uint64(cycle),
		BucketCycles: uint64(snap.BucketCycles),
		Buckets:      len(snap.Buckets),
		WindowCycles: uint64(snap.Cycles()),
		StallKinds:   make([]string, obs.NumStallKinds),
	}
	for k := range doc.StallKinds {
		doc.StallKinds[k] = obs.StallKind(k).String()
	}
	totals := snap.LinkTotals()
	if top > 0 {
		totals = snap.TopLinks(top)
	}
	doc.Links = make([]HeatmapLink, 0, len(totals))
	for _, lt := range totals {
		doc.Links = append(doc.Links, HeatmapLink{
			Node: lt.Node, Port: lt.Port, Flits: lt.Flits,
			PerVC: lt.PerVC, Stalls: lt.Stalls[:],
		})
	}
	return doc
}

// heatmap reduces the current window ring to the /heatmap document, an
// empty one when no ring is attached.
func (s *Server) heatmap(top int) Heatmap {
	var snap obs.WindowSnapshot
	if w := s.windows.Load(); w != nil {
		snap = w.Snapshot()
	}
	return NewHeatmap(sim.Cycle(s.cycle.Load()), snap, top)
}

// Handler returns the HTTP handler: GET /metrics (Prometheus text
// exposition), GET /status (JSON) and GET /heatmap (windowed link
// utilization and stall mix as JSON; ?top=N keeps the N busiest links).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		st := Status{Cycle: s.cycle.Load(), Stats: s.snap.Load()}
		if names, by := s.progressSorted(); len(names) > 0 {
			st.Progress = by
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/heatmap", func(w http.ResponseWriter, r *http.Request) {
		top := 0
		if v := r.URL.Query().Get("top"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "top must be a non-negative integer", http.StatusBadRequest)
				return
			}
			top = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.heatmap(top))
	})
	return mux
}

// Attach wires the server to a network: a cycle hook publishes a fresh
// stats snapshot every `every` cycles (and keeps the cycle gauge
// current), and the network's window ring (if its observer has one) is
// exposed on /heatmap. Hooks run in Step's serial pre-phase on the
// simulation goroutine — the only place the unsynchronized
// stats.Collector may be read — so attaching is safe at any Workers
// setting. every == 0 selects a sensible default.
//
// The returned flush publishes a final snapshot at the current cycle.
// The hook alone leaves the last partial interval unpublished — a run
// whose length is not a multiple of `every` would serve stale final
// numbers forever — so call flush from the simulation goroutine once
// stepping is done (and before reading the endpoints for end state).
func Attach(s *Server, n *noc.Network, every sim.Cycle) (flush func()) {
	if every == 0 {
		every = 1 << 10
	}
	if o := n.Obs(); o != nil {
		if w := o.Windows; w != nil {
			s.SetWindows(w)
		}
	}
	n.AddHook(func(c sim.Cycle) {
		s.SetCycle(c)
		if c%every == 0 {
			s.Publish(n.Stats().Snapshot())
		}
	})
	return func() {
		s.SetCycle(n.Now())
		s.Publish(n.Stats().Snapshot())
	}
}

// ListenAndServe binds addr synchronously and then serves h in the
// background. Binding before returning means a bad or already-used
// address fails here, before the simulation starts, instead of racing a
// goroutine's error against the run (the noctool -pprof listener had
// exactly that bug). A nil handler serves http.DefaultServeMux — which
// is where net/http/pprof registers — and the returned address resolves
// ":0" to the actual port.
//
// The returned shutdown function gracefully stops the server with
// http.Server.Shutdown under a short deadline: in-flight scrapes get a
// moment to finish and the listener is released before it returns, so a
// caller that exits and restarts (or a test that reuses the port) never
// races a dangling listener. It is safe to call more than once.
func ListenAndServe(addr string, h http.Handler) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
	}
	return ln.Addr(), shutdown, nil
}
