package modelcheck

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
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
	// it between levels and, within a level, each worker checks it
	// between parents, so the overshoot is one parent's expansion per
	// worker plus the merge of what was expanded.
	Budget time.Duration
	// workers is the number of goroutines a BFS level is expanded on:
	// 0 means GOMAXPROCS, which every caller uses, and 1 expands on the
	// calling goroutine. The tests set other counts; every count explores
	// the same graph and returns the same Result, Elapsed and
	// PeakFrontierBytes aside.
	workers int
}

func (o Options) withDefaults() Options {
	if o.MaxStates <= 0 {
		o.MaxStates = 1 << 20
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4096
	}
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
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

// appendShadowKey appends the explorer-side part of a state's identity
// to buf: injection progress, the sorted delivery ledger, the sabotage
// flag and the injection cursor. Together with the network's canonical
// encoding it identifies the state: two states with equal network
// encodings and equal shadow keys have identical futures.
func (m *machine) appendShadowKey(buf []byte) []byte {
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
// buffer, four heap objects short of the snapshot's own. size is
// bytes() as of the last save into it.
type held struct {
	snap *noc.Snapshot
	shad shadow
	id   int32
	size int
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
//
// The search is breadth first, one level at a time: GOMAXPROCS
// goroutines each expand a contiguous chunk of the level on their own
// network, and one serial merge then walks the successors in frontier
// order, numbering new states and checking the bounds and the deadlock
// condition as it goes. The Result is the same at every worker count,
// Elapsed and PeakFrontierBytes aside.
func Explore(sc Scenario, opt Options) (Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	x, err := newExplorer(&sc, opt, start)
	if err != nil {
		return Result{}, err
	}
	defer x.close()
	v, detail := x.run()
	x.res.Verdict = v
	x.res.Detail = detail
	x.res.Elapsed = time.Since(start)
	return x.res, nil
}

// explorer is one Explore call's search state. The workers read
// sections, visited and level while they expand a level; only the merge,
// which runs while they wait, writes them.
type explorer struct {
	opt   Options
	start time.Time
	res   Result
	// workers[0] runs on the calling goroutine; the others are spawned
	// once, in newExplorer, and wait on their start channel between
	// levels. done collects their end-of-chunk signals, and exited
	// their exits. done holds one signal per worker, so a worker whose
	// level a panic on the calling goroutine cut short still reaches its
	// exit, and close can wait for it.
	workers []*worker
	done    chan struct{}
	exited  sync.WaitGroup
	nodes   int

	// sections interns every distinct node section of the network's
	// canonical encoding (noc.Network.AppendCanonicalNode) seen so far.
	// A visited key is the section id of every node, four bytes each,
	// then the shadow key: a few dozen bytes where the full encoding is
	// kilobytes. It is exact: sections are self-delimiting, so two
	// states have equal keys exactly when their full encodings are equal.
	sections map[string]uint32
	visited  map[string]int32
	states   []state

	// level is the BFS level being expanded, next the one the merge
	// fills. pending counts the level's entries the merge has not yet
	// passed and frontierBytes what the unexpanded entries retain: the
	// serial FIFO queue's length and bytes, which PeakFrontier and
	// PeakFrontierBytes report.
	level, next   []held
	pending       int
	frontierBytes int
}

// worker expands one chunk of a level on its own machine. Each
// successor either was visited when the level began (its id is
// recorded) or is a candidate: a new state or one first seen elsewhere
// in the same level, which only the merge can tell apart. A candidate
// carries its key, its still-unknown sections, and, unless it is
// terminal, a snapshot of it.
type worker struct {
	m     *machine
	start chan struct{}
	// lo and hi bound the worker's chunk of the level.
	lo, hi int

	// free is recycled snapshot storage: a parent's as soon as its last
	// choice is applied, a duplicate candidate's once the merge has
	// found it.
	free    []held
	enabled []Choice
	sec     []byte

	// One level's output. outs is every transition of the chunk in
	// order, and expanded the end in outs of each parent expanded.
	// cands, keys, raw and miss hold the candidates: keys and raw are
	// arenas the records index into. stop says why the worker ended its
	// chunk early.
	outs     []outcome
	expanded []int
	cands    []candidate
	keys     []byte
	raw      []byte
	miss     []missing
	stop     stopReason
	// deadDelivered and deadInFlight describe the deadlocked state a
	// stopDeadlock chunk ends on, for the verdict's detail.
	deadDelivered, deadInFlight int
}

// outcome is one explored transition: the choice and its successor's
// id, or the complement of its index in the worker's cands.
type outcome struct {
	c    Choice
	succ int32
}

// candidate is a successor not in the visited set when its level began.
type candidate struct {
	h              held
	keyLo, keyHi   int
	missLo, missHi int
	terminal, full bool
}

// missing is a node section the intern table lacked: the key bytes of
// node stay zero until the merge interns raw[lo:hi].
type missing struct {
	node, lo, hi int
}

type stopReason uint8

const (
	stopNone stopReason = iota
	stopBudget
	stopDeadlock
)

func newExplorer(sc *Scenario, opt Options, start time.Time) (*explorer, error) {
	x := &explorer{
		opt:      opt,
		start:    start,
		done:     make(chan struct{}, opt.workers),
		nodes:    sc.Width * sc.Height,
		sections: make(map[string]uint32),
		visited:  make(map[string]int32),
	}
	for i := 0; i < opt.workers; i++ {
		m, err := newMachine(sc, nil)
		if err != nil {
			x.close()
			return nil, err
		}
		w := &worker{m: m}
		x.workers = append(x.workers, w)
		if i > 0 {
			w.start = make(chan struct{})
			x.exited.Add(1)
			go func() {
				defer x.exited.Done()
				for range w.start {
					w.expand(x)
					x.done <- struct{}{}
				}
			}()
		}
	}
	x.res = Result{Scenario: *sc, Expected: x.workers[0].m.expected}
	return x, nil
}

// close stops the worker goroutines, waits for them to exit and
// releases the networks. The workers are idle, as every level waits for
// all of them, unless a panic on the calling goroutine cut a level
// short: then a worker finishes its chunk, signals done without
// blocking, and exits.
func (x *explorer) close() {
	for _, w := range x.workers {
		if w.start != nil {
			close(w.start)
		}
	}
	x.exited.Wait()
	for _, w := range x.workers {
		w.m.Close()
	}
}

// run searches level by level and returns the verdict and its detail.
func (x *explorer) run() (Verdict, string) {
	w := x.workers[0]
	w.reset()
	w.appendKey(x)
	w.candidate(0, 0)
	x.admit(w, 0, -1, Choice{}, 0)
	x.level, x.next = x.next, x.level[:0]

	for depth := 0; len(x.level) > 0; depth++ {
		if x.opt.Budget > 0 && time.Since(x.start) > x.opt.Budget {
			return Exhausted, x.budgetDetail()
		}
		if depth >= x.opt.MaxDepth {
			return Exhausted, fmt.Sprintf("depth bound %d reached at %d states", x.opt.MaxDepth, x.res.States)
		}
		if v, detail, done := x.merge(x.expand(), depth); done {
			return v, detail
		}
		clear(x.level)
		x.level, x.next = x.next, x.level[:0]
	}
	if ce, lap := findLivelock(x.states); ce != nil {
		x.res.Counterexample = ce
		return Livelocked, fmt.Sprintf("tick cycle of %d states never completes delivery", lap)
	}
	return Proved, fmt.Sprintf("all %d states deliver %d/%d packets; %d terminal states",
		x.res.States, x.res.Expected, x.res.Expected, x.res.Terminals)
}

func (x *explorer) budgetDetail() string {
	return fmt.Sprintf("wall-clock budget %v exhausted at %d states", x.opt.Budget, x.res.States)
}

// expand splits the level into one contiguous chunk per worker, runs
// them, and returns the workers used.
func (x *explorer) expand() []*worker {
	n := len(x.level)
	ws := x.workers[:min(len(x.workers), n)]
	for k, w := range ws {
		w.lo, w.hi = k*n/len(ws), (k+1)*n/len(ws)
		w.reset()
	}
	for _, w := range ws[1:] {
		w.start <- struct{}{}
	}
	ws[0].expand(x)
	for range ws[1:] {
		<-x.done
	}
	return ws
}

// merge walks the level's transitions in frontier order, which is the
// order the serial FIFO search applies them in: it counts them, admits
// the candidates, records tick successors, and stops at the first
// bound or deadlock the serial search would stop at. A successor a
// worker found visited was visited at that point of the serial search
// too, and a candidate is looked up again here, against every state
// admitted before it; so ids, counts and counterexamples are the
// serial search's.
func (x *explorer) merge(ws []*worker, depth int) (Verdict, string, bool) {
	i := 0
	for _, w := range ws {
		at := 0
		for _, end := range w.expanded {
			cur := x.level[i].id
			x.frontierBytes -= x.level[i].size
			i++
			x.pending = len(x.level) - i
			for _, o := range w.outs[at:end] {
				x.res.Transitions++
				id := o.succ
				if id < 0 {
					id = x.admit(w, int(^id), cur, o.c, depth+1)
					if x.res.States > x.opt.MaxStates {
						return Exhausted, fmt.Sprintf("state bound %d exceeded", x.opt.MaxStates), true
					}
				}
				if o.c.Op != OpTick {
					continue
				}
				x.states[cur].tickSucc = id
				// A tick self-loop on a fully-injected, non-terminal
				// state is the classical deadlock: no transition
				// remains that could change anything.
				if id == cur && x.states[cur].full {
					x.res.Counterexample = append(traceTo(x.states, cur), Choice{Op: OpTick})
					return Deadlocked, fmt.Sprintf(
						"quiescent state with %d/%d packets delivered and %d flits in flight",
						w.deadDelivered, x.res.Expected, w.deadInFlight), true
				}
			}
			at = end
		}
		switch w.stop {
		case stopBudget:
			return Exhausted, x.budgetDetail(), true
		case stopDeadlock:
			panic("modelcheck: the merge passed the deadlock a worker stopped on")
		}
	}
	return 0, "", false
}

// admit resolves candidate ci of worker w: it interns the sections the
// worker could not, and either finds the state visited (the snapshot
// storage goes back to w) or numbers it and queues it for expansion
// unless it is terminal. It returns the state's id.
func (x *explorer) admit(w *worker, ci int, parent int32, c Choice, depth int) int32 {
	cd := &w.cands[ci]
	key := w.keys[cd.keyLo:cd.keyHi]
	for _, ms := range w.miss[cd.missLo:cd.missHi] {
		raw := w.raw[ms.lo:ms.hi]
		sid, ok := x.sections[string(raw)]
		if !ok {
			sid = uint32(len(x.sections))
			x.sections[string(raw)] = sid
		}
		binary.LittleEndian.PutUint32(key[4*ms.node:], sid)
	}
	// The conversion in the index expression does not allocate; only a
	// new state's key is materialised.
	if id, seen := x.visited[string(key)]; seen {
		if cd.h.snap != nil {
			w.free = append(w.free, cd.h)
		}
		return id
	}
	id := int32(len(x.states))
	x.visited[string(key)] = id
	x.states = append(x.states, state{parent: parent, choice: c, tickSucc: -1, terminal: cd.terminal, full: cd.full})
	x.res.States++
	x.res.Deepest = max(x.res.Deepest, depth)
	if cd.terminal {
		x.res.Terminals++
		return id
	}
	h := cd.h
	h.id = id
	x.next = append(x.next, h)
	x.frontierBytes += h.size
	x.res.PeakFrontier = max(x.res.PeakFrontier, x.pending+len(x.next))
	x.res.PeakFrontierBytes = max(x.res.PeakFrontierBytes, x.frontierBytes)
	return id
}

// reset empties the worker's per-level output.
func (w *worker) reset() {
	w.outs, w.expanded, w.cands = w.outs[:0], w.expanded[:0], w.cands[:0]
	w.keys, w.raw, w.miss = w.keys[:0], w.raw[:0], w.miss[:0]
	w.stop = stopNone
}

// expand applies every enabled choice to every parent of the worker's
// chunk. It reads the visited set and the intern table as they stood
// when the level began and writes nothing outside the worker.
func (w *worker) expand(x *explorer) {
	m := w.m
	for i := w.lo; i < w.hi; i++ {
		if x.opt.Budget > 0 && time.Since(x.start) > x.opt.Budget {
			w.stop = stopBudget
			return
		}
		p := &x.level[i]
		// The enabled set derives from the shadow alone, so the parent
		// network state only needs restoring per applied choice.
		m.restoreShadow(p.shad)
		w.enabled = m.choices(w.enabled)
		for _, c := range w.enabled {
			m.n.Restore(p.snap)
			m.restoreShadow(p.shad)
			m.apply(c)
			keyLo, missLo := len(w.keys), len(w.miss)
			if w.appendKey(x) {
				if id, seen := x.visited[string(w.keys[keyLo:])]; seen {
					w.keys = w.keys[:keyLo]
					w.outs = append(w.outs, outcome{c: c, succ: id})
					if c.Op == OpTick && id == p.id && m.fullyInjected() {
						// The merge stops here with a deadlock verdict.
						w.deadDelivered, w.deadInFlight = len(m.led.delivered), int(m.n.Stats().InFlight())
						w.expanded = append(w.expanded, len(w.outs))
						w.stop = stopDeadlock
						return
					}
					continue
				}
			}
			w.candidate(keyLo, missLo)
			w.outs = append(w.outs, outcome{c: c, succ: ^int32(len(w.cands) - 1)})
		}
		// The parent is done with: its storage takes the next candidate.
		w.expanded = append(w.expanded, len(w.outs))
		w.free = append(w.free, held{snap: p.snap, shad: p.shad})
	}
}

// appendKey appends the machine's state key to w.keys: the intern id of
// every node section, then the shadow key. A section the table lacks is
// copied to w.raw and listed in w.miss, its four key bytes left zero
// for the merge to fill in. It reports whether every section was known.
func (w *worker) appendKey(x *explorer) bool {
	known := true
	for node := 0; node < x.nodes; node++ {
		w.sec = w.m.n.AppendCanonicalNode(w.sec[:0], node)
		sid, ok := x.sections[string(w.sec)]
		if !ok {
			known = false
			lo := len(w.raw)
			w.raw = append(w.raw, w.sec...)
			w.miss = append(w.miss, missing{node: node, lo: lo, hi: len(w.raw)})
		}
		w.keys = binary.LittleEndian.AppendUint32(w.keys, sid)
	}
	w.keys = w.m.appendShadowKey(w.keys)
	return known
}

// candidate records the machine's state as a candidate whose key starts
// at keyLo in w.keys and whose unknown sections start at missLo in
// w.miss. A non-terminal one is snapshotted into recycled storage.
func (w *worker) candidate(keyLo, missLo int) {
	m := w.m
	cd := candidate{keyLo: keyLo, keyHi: len(w.keys), missLo: missLo, missHi: len(w.miss),
		terminal: m.terminal(), full: m.fullyInjected()}
	if !cd.terminal {
		if k := len(w.free) - 1; k >= 0 {
			cd.h, w.free = w.free[k], w.free[:k]
		}
		cd.h.snap = m.n.SnapshotInto(cd.h.snap)
		cd.h.shad = m.saveShadow(cd.h.shad)
		cd.h.size = cd.h.bytes()
	}
	w.cands = append(w.cands, cd)
}

// findLivelock runs once the space is exhausted. Every fully-injected
// state's tick chain must reach a terminal-success state; tick is
// deterministic, so a chain that revisits a state has found a livelock
// cycle. It returns the path to the cycle's entry plus one full lap,
// and the lap's length, or nil.
func findLivelock(states []state) ([]Choice, int) {
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
				// `at` is on the current chain: a tick cycle.
				lap := 0
				for i, s := range chain {
					if s == at {
						lap = len(chain) - i
						break
					}
				}
				ce := traceTo(states, at)
				for i := 0; i < lap; i++ {
					ce = append(ce, Choice{Op: OpTick})
				}
				return ce, lap
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
	return nil, 0
}

// traceTo reconstructs the choice path from the root to state id.
func traceTo(states []state, id int32) []Choice {
	var out []Choice
	for id > 0 {
		out = append(out, states[id].choice)
		id = states[id].parent
	}
	slices.Reverse(out)
	return out
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
