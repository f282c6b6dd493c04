package modelcheck

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"time"
	"unsafe"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
)

// Op is an explorer transition kind.
type Op uint8

const (
	// OpTick advances the network one cycle (noc.Network.Step).
	OpTick Op = iota
	// OpInject offers the named source's next scheduled packet at the
	// current cycle, without advancing time — so every same-cycle
	// subset of injections is reachable as a sequence of OpInjects.
	OpInject
	// OpSabotage discards one pending upstream credit at the
	// scenario's sabotage node (noc.DropPendingCredit).
	OpSabotage
)

// Choice is one transition of an execution: an Op plus its argument
// (the source node for OpInject; unused otherwise).
type Choice struct {
	Op  Op
	Src int
}

// String implements fmt.Stringer.
func (c Choice) String() string {
	switch c.Op {
	case OpTick:
		return "tick"
	case OpInject:
		return fmt.Sprintf("inject(src=%d)", c.Src)
	case OpSabotage:
		return fmt.Sprintf("sabotage(node=%d)", c.Src)
	default:
		return fmt.Sprintf("Choice(%d,%d)", c.Op, c.Src)
	}
}

// Verdict is the outcome of an exploration.
type Verdict int

const (
	// Proved: the reachable state space was exhausted and every
	// execution delivers all reachable traffic with no deadlock or
	// livelock. This is a proof for the scenario, not a sample.
	Proved Verdict = iota
	// Deadlocked: a reachable quiescent state retains undelivered
	// or in-flight traffic and ticking no longer changes the state.
	Deadlocked
	// Livelocked: a reachable cycle of distinct states exists under
	// pure ticking among fully-injected, undelivered states — the
	// network keeps moving but never completes delivery.
	Livelocked
	// Exhausted: a resource bound (states, depth or wall-clock
	// budget) was hit before the space was exhausted. No violation
	// was found within the bound; nothing is proved beyond it.
	Exhausted
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Proved:
		return "PROVED"
	case Deadlocked:
		return "DEADLOCK"
	case Livelocked:
		return "LIVELOCK"
	case Exhausted:
		return "EXHAUSTED"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Options bounds an exploration. The zero value applies defaults.
type Options struct {
	// MaxStates caps the number of distinct states (default 1 << 20).
	MaxStates int
	// MaxDepth caps the transition depth of any execution explored
	// (default 4096).
	MaxDepth int
	// Budget is a wall-clock bound; 0 means none. The explorer checks
	// it between frontier expansions, so overshoot is one state's
	// work.
	Budget time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxStates <= 0 {
		o.MaxStates = 1 << 20
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4096
	}
	return o
}

// Result is the outcome of Explore.
type Result struct {
	Scenario Scenario
	Verdict  Verdict
	// States is the number of distinct reachable states visited;
	// Transitions counts explored edges between them.
	States, Transitions int
	// Terminals is the number of distinct terminal-success states.
	Terminals int
	// Expected is the number of scheduled packets with a reachable
	// destination — the delivery obligation every execution must meet.
	Expected int
	// Deepest is the largest transition depth reached.
	Deepest int
	// PeakFrontier is the largest number of discovered-but-unexpanded
	// states held at once: each holds a network snapshot, so this is
	// what bounds the exploration's memory. PeakFrontierBytes is the
	// most heap those entries retained at once — noc.Snapshot.Bytes of
	// each plus its shadow buffer — and about what the exploration
	// holds on to: expanded entries wait on a free list to be refilled.
	PeakFrontier      int
	PeakFrontierBytes int
	// Counterexample is the choice sequence from the initial state to
	// the violating state (plus, for livelocks, one full cycle); empty
	// unless the verdict is Deadlocked or Livelocked. Replay it with
	// Replay to regenerate the violating execution on a live network.
	Counterexample []Choice
	// Detail is a one-line human description of the verdict.
	Detail string
	// Elapsed is the exploration wall-clock time.
	Elapsed time.Duration
}

// machine binds a network, its delivery ledger and the scenario's
// injection schedule into the explorer's transition system.
type machine struct {
	sc       *Scenario
	n        *noc.Network
	led      *ledger
	schedule [][]Packet
	injected []uint8
	// minInjectSrc is the partial-order reduction cursor: same-cycle
	// injections from distinct sources commute (they touch disjoint
	// NI queues and per-source sequence counters, and nothing
	// cycle-order-dependent enters the canonical state), so only the
	// ascending-source order of every same-cycle injection subset is
	// explored. A tick resets the cursor.
	minInjectSrc int
	sabotaged    bool
	expected     int
	// keyScratch is key's buffer for sorting the delivery ledger.
	keyScratch []uint64
}

// newMachine builds the scenario's transition system. Observer o may be
// nil; it is non-nil only for counterexample replay.
func newMachine(sc *Scenario, o *obs.Observer) (*machine, error) {
	n, led, err := sc.build(o)
	if err != nil {
		return nil, err
	}
	m := &machine{
		sc:       sc,
		n:        n,
		led:      led,
		schedule: sc.bySource(),
		injected: make([]uint8, sc.Width*sc.Height),
	}
	// The delivery obligation: every scheduled packet whose endpoints
	// the static fault set leaves connected. Unreachable packets are
	// dropped (and counted) at offer time by the network itself.
	for _, p := range sc.Packets {
		if m.n.Reachable(p.Src, p.Dst) {
			m.expected++
		}
	}
	return m, nil
}

func (m *machine) Close() { m.n.Close() }

// apply executes one transition. Applying a disabled choice is a
// programming error and panics.
func (m *machine) apply(c Choice) {
	switch c.Op {
	case OpTick:
		m.n.Step()
		m.minInjectSrc = 0
	case OpInject:
		next := int(m.injected[c.Src])
		if next >= len(m.schedule[c.Src]) {
			panic(fmt.Sprintf("modelcheck: inject from exhausted source %d", c.Src))
		}
		p := m.schedule[c.Src][next]
		m.injected[c.Src]++
		m.minInjectSrc = c.Src
		m.n.Inject(p.Src, &flit.Packet{Dst: p.Dst, Class: p.Class, Size: p.Size})
	case OpSabotage:
		// DropPendingCredit reports false when no credit is latched;
		// the resulting no-op state then dedups against its parent, so
		// the choice is effectively re-armed until it lands.
		if m.n.DropPendingCredit(c.Src) {
			m.sabotaged = true
		}
	default:
		panic(fmt.Sprintf("modelcheck: unknown op %d", c.Op))
	}
}

// choices returns the transitions enabled in the current state. OpTick
// is always enabled; OpInject per source with scheduled packets left;
// OpSabotage while armed and unused.
func (m *machine) choices(buf []Choice) []Choice {
	buf = buf[:0]
	buf = append(buf, Choice{Op: OpTick})
	for src := m.minInjectSrc; src < len(m.schedule); src++ {
		if int(m.injected[src]) < len(m.schedule[src]) {
			buf = append(buf, Choice{Op: OpInject, Src: src})
		}
	}
	if m.sc.SabotageNode >= 0 && !m.sabotaged {
		buf = append(buf, Choice{Op: OpSabotage, Src: m.sc.SabotageNode})
	}
	return buf
}

// fullyInjected reports whether every scheduled packet has been offered.
func (m *machine) fullyInjected() bool {
	for src := range m.schedule {
		if int(m.injected[src]) < len(m.schedule[src]) {
			return false
		}
	}
	return true
}

// terminal reports terminal success: everything injected, every
// reachable packet delivered, and the network fully drained — no
// in-flight flits and no armed retransmission timers.
func (m *machine) terminal() bool {
	return m.fullyInjected() &&
		len(m.led.delivered) == m.expected &&
		m.n.Stats().InFlight() == 0 &&
		m.n.PendingRetx() == 0
}

// key builds the canonical state identity: the network's cycle-free
// canonical encoding plus the explorer-side state (injection progress,
// the delivery ledger, the sabotage flag). Two states with equal keys
// have identical futures.
func (m *machine) key(buf []byte) []byte {
	buf = m.n.AppendCanonical(buf[:0])
	for _, c := range m.injected {
		buf = append(buf, c)
	}
	keys := m.keyScratch[:0]
	for k := range m.led.delivered {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	m.keyScratch = keys
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, k)
	}
	if m.sabotaged {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(m.minInjectSrc))
	return buf
}

// shadow is the explorer-side state saved beside each network snapshot,
// in one buffer: the injection cursor with the sabotage flag in its top
// bit, the injection count of every source, then the delivery keys.
type shadow []uint64

const shadowSabotaged = 1 << 63

// saveShadow captures the explorer-side state into old's storage (a nil
// shadow allocates).
func (m *machine) saveShadow(old shadow) shadow {
	s := append(old[:0], uint64(m.minInjectSrc))
	if m.sabotaged {
		s[0] |= shadowSabotaged
	}
	for _, c := range m.injected {
		s = append(s, uint64(c))
	}
	for k := range m.led.delivered {
		s = append(s, k)
	}
	return s
}

func (m *machine) restoreShadow(s shadow) {
	m.minInjectSrc = int(s[0] &^ shadowSabotaged)
	m.sabotaged = s[0]&shadowSabotaged != 0
	for i := range m.injected {
		m.injected[i] = uint8(s[1+i])
	}
	clear(m.led.delivered)
	for _, k := range s[1+len(m.injected):] {
		m.led.delivered[k] = true
	}
}

// state is the explorer's record of one discovered state, indexed by
// the dense id the visited set assigns in discovery order.
type state struct {
	// parent and choice record how the state was first reached, for
	// counterexample reconstruction.
	parent int32
	choice Choice
	// tickSucc is the state's tick successor, or -1 until the state is
	// expanded (terminal states never are). The livelock pass walks
	// tick chains through fully-injected states only (injection counts
	// are monotone, so any cycle is made of ticks alone).
	tickSucc int32
	// terminal marks terminal success; full marks fully injected.
	terminal, full bool
}

// held is a discovered state awaiting expansion, and the storage of an
// expanded one awaiting reuse: the network snapshot and the shadow
// buffer, four heap objects short of the snapshot's own.
type held struct {
	snap  *noc.Snapshot
	shad  shadow
	id    int32
	depth int
}

// bytes is the heap the entry retains.
func (h *held) bytes() int {
	return int(unsafe.Sizeof(*h)) + h.snap.Bytes() + cap(h.shad)*8
}

// Explore exhaustively enumerates the scenario's reachable state space
// under opt's bounds and returns the verdict. The proof obligation
// checked in every reachable state: ticking a fully-injected state must
// make progress toward (and eventually reach) terminal success — a
// quiescent self-loop short of it is a deadlock, a longer tick-cycle a
// livelock. Injection interleavings are the explorer's nondeterminism;
// the network itself is deterministic per transition.
func Explore(sc Scenario, opt Options) (Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	m, err := newMachine(&sc, nil)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()

	res := Result{Scenario: sc, Expected: m.expected}
	finish := func(v Verdict, detail string) (Result, error) {
		res.Verdict = v
		res.Detail = detail
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// visited keys on the full canonical bytes, so a hash collision
	// cannot fold two states together.
	visited := make(map[string]int32)
	var states []state
	// frontier is the BFS queue. An expanded entry's snapshot and shadow
	// go to free, and the next new state is saved into them: snapshot
	// storage is allocated PeakFrontier times, not once per state.
	var frontier, free []held
	var frontierBytes int
	var keyBuf []byte

	// discover records the machine's current state, reached from parent
	// by c, and queues it for expansion unless it is terminal.
	discover := func(parent int32, c Choice, depth int) int32 {
		id := int32(len(states))
		visited[string(keyBuf)] = id
		st := state{parent: parent, choice: c, tickSucc: -1, terminal: m.terminal(), full: m.fullyInjected()}
		states = append(states, st)
		res.States++
		if st.terminal {
			res.Terminals++
			return id
		}
		var h held
		if k := len(free) - 1; k >= 0 {
			h, free = free[k], free[:k]
		}
		h = held{id: id, snap: m.n.SnapshotInto(h.snap), shad: m.saveShadow(h.shad), depth: depth}
		frontier = append(frontier, h)
		frontierBytes += h.bytes()
		res.PeakFrontier = max(res.PeakFrontier, len(frontier))
		res.PeakFrontierBytes = max(res.PeakFrontierBytes, frontierBytes)
		return id
	}

	keyBuf = m.key(keyBuf)
	discover(-1, Choice{}, 0)

	// trace reconstructs the choice path from the root to state id.
	trace := func(id int32) []Choice {
		var out []Choice
		for id > 0 {
			out = append(out, states[id].choice)
			id = states[id].parent
		}
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}

	var enabled []Choice
	for len(frontier) > 0 {
		if opt.Budget > 0 && time.Since(start) > opt.Budget {
			return finish(Exhausted, fmt.Sprintf("wall-clock budget %v exhausted at %d states", opt.Budget, res.States))
		}
		// Pop breadth-first: counterexamples come out minimal-depth.
		cur := frontier[0]
		frontier[0] = held{}
		frontier = frontier[1:]
		frontierBytes -= cur.bytes()
		if cur.depth >= opt.MaxDepth {
			return finish(Exhausted, fmt.Sprintf("depth bound %d reached at %d states", opt.MaxDepth, res.States))
		}

		// The enabled set derives from the shadow alone, so the parent
		// network state only needs restoring per applied choice.
		m.restoreShadow(cur.shad)
		enabled = m.choices(enabled)

		for _, c := range enabled {
			m.n.Restore(cur.snap)
			m.restoreShadow(cur.shad)
			m.apply(c)
			res.Transitions++

			keyBuf = m.key(keyBuf)
			// The conversion in the index expression does not allocate;
			// only a new state's key is materialised, in discover.
			id, seen := visited[string(keyBuf)]
			if !seen {
				id = discover(cur.id, c, cur.depth+1)
				if d := cur.depth + 1; d > res.Deepest {
					res.Deepest = d
				}
				if res.States > opt.MaxStates {
					return finish(Exhausted, fmt.Sprintf("state bound %d exceeded", opt.MaxStates))
				}
			}
			if c.Op == OpTick {
				states[cur.id].tickSucc = id
				// A tick self-loop on a fully-injected, non-terminal
				// state is the classical deadlock: no transition
				// remains that could change anything.
				if id == cur.id && states[cur.id].full {
					res.Counterexample = append(trace(cur.id), Choice{Op: OpTick})
					return finish(Deadlocked, fmt.Sprintf(
						"quiescent state with %d/%d packets delivered and %d flits in flight",
						len(m.led.delivered), m.expected, m.n.Stats().InFlight()))
				}
			}
		}
		free = append(free, cur)
	}

	// The space is exhausted. Every fully-injected state's tick chain
	// must reach a terminal-success state; tick is deterministic, so a
	// chain that revisits a state has found a livelock cycle.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(states))
	var chain []int32
	for id := range states {
		if !states[id].full {
			continue
		}
		chain = chain[:0]
		at := int32(id)
		for {
			if states[at].terminal || color[at] == black {
				break
			}
			if color[at] == gray {
				// `at` is on the current chain: a tick cycle. Emit the
				// path to the cycle entry plus one full lap.
				lap := 0
				for i, s := range chain {
					if s == at {
						lap = len(chain) - i
						break
					}
				}
				ce := trace(at)
				for i := 0; i < lap; i++ {
					ce = append(ce, Choice{Op: OpTick})
				}
				res.Counterexample = ce
				return finish(Livelocked, fmt.Sprintf("tick cycle of %d states never completes delivery", lap))
			}
			color[at] = gray
			chain = append(chain, at)
			at = states[at].tickSucc
			if at < 0 {
				// Unexpanded (can only happen under a bound that was
				// already reported); treat as unknown-safe.
				break
			}
		}
		for _, s := range chain {
			color[s] = black
		}
	}

	return finish(Proved, fmt.Sprintf(
		"all %d states deliver %d/%d packets; %d terminal states",
		res.States, m.expected, m.expected, res.Terminals))
}

// Replay rebuilds the scenario from scratch and applies trace choice by
// choice, returning the machine's network for inspection. When o is
// non-nil the network is built instrumented, so the replay captures obs
// trace events and spans for the counterexample report.
func Replay(sc Scenario, trace []Choice, o *obs.Observer) (*noc.Network, error) {
	m, err := newMachine(&sc, o)
	if err != nil {
		return nil, err
	}
	for _, c := range trace {
		m.apply(c)
	}
	return m.n, nil
}

// FormatCounterexample renders a failed Result as a human-readable
// report: the verdict, the choice trace, and — by replaying the trace
// on an instrumented network — the per-packet hop spans of the stuck
// execution.
func FormatCounterexample(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s — %s\n", res.Scenario.Name, res.Verdict, res.Detail)
	fmt.Fprintf(&b, "counterexample (%d choices):\n", len(res.Counterexample))
	for i, c := range res.Counterexample {
		fmt.Fprintf(&b, "  %3d. %s\n", i+1, c)
	}
	o := obs.New(1 << 16)
	n, err := Replay(res.Scenario, res.Counterexample, o)
	if err != nil {
		fmt.Fprintf(&b, "replay failed: %v\n", err)
		return b.String()
	}
	defer n.Close()
	st := n.Stats()
	fmt.Fprintf(&b, "replayed end state: cycle %d, %d created, %d delivered, %d in flight, %d dropped\n",
		n.Now(), st.Created(), st.Ejected(), st.InFlight(), st.Dropped())
	if spans := obs.FormatSpans(n.Spans(), 8); spans != "" {
		b.WriteString(spans)
	}
	return b.String()
}
