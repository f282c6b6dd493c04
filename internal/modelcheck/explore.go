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
	// states held at once. An entry is eight bytes: the state's id,
	// which names its key in the arena every visited state has one in
	// (an interned section id per node and one for the explorer-side
	// state), and its count of packets in flight. The network state a
	// key names lives once per distinct node section, in a table of
	// noc.NodeRecords the search only grows. PeakFrontierBytes is the
	// most heap the entries and that table held at once; the visited
	// set's arena and index and the per-state graph, which grow with
	// States, are not counted.
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

// terminal reports terminal success for a state with inFlight packets
// in flight: everything injected, every reachable packet delivered, and
// the network fully drained — no packets in flight and no armed
// retransmission timers. The count is the caller's: the explorer keeps
// it per state, as the collector is not restored with the nodes.
func (m *machine) terminal(inFlight int) bool {
	return m.fullyInjected() &&
		len(m.led.delivered) == m.expected &&
		inFlight == 0 &&
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

// restoreShadowKey restores the explorer-side state from k, a shadow
// key appendShadowKey wrote: the injection counts, the delivery keys
// up to the last two bytes, then the sabotage flag and the cursor.
func (m *machine) restoreShadowKey(k string) {
	for i := range m.injected {
		m.injected[i] = k[i]
	}
	m.sabotaged = k[len(k)-2] != 0
	m.minInjectSrc = int(k[len(k)-1])
	clear(m.led.delivered)
	for rest := []byte(k[len(m.injected) : len(k)-2]); len(rest) > 0; {
		d, n := binary.Uvarint(rest)
		m.led.delivered[d] = true
		rest = rest[n:]
	}
}

// state is the explorer's record of one discovered state, indexed by
// the dense id the visited set assigns in discovery order.
type state struct {
	// parent, op and src record how the state was first reached, for
	// counterexample reconstruction: the choice Choice{op, src}.
	parent int32
	src    int32
	// tickSucc is the state's tick successor, or -1 until the state is
	// expanded (terminal states never are). The livelock pass walks
	// tick chains through fully-injected states only (injection counts
	// are monotone, so any cycle is made of ticks alone).
	tickSucc int32
	op       Op
	// terminal marks terminal success; full marks fully injected.
	terminal, full bool
}

// choice returns the choice that first reached the state.
func (s *state) choice() Choice { return Choice{Op: s.op, Src: int(s.src)} }

// held is a discovered state awaiting expansion: its id, which names its
// key in the explorer's arena, and the one thing the key leaves out that
// the verdicts read: the number of packets in flight.
type held struct {
	id, inFlight int32
}

// heldBytes is the heap a frontier entry retains.
const heldBytes = int(unsafe.Sizeof(held{}))

// noSection is a key word the intern tables do not hold yet: a worker's
// live word for a node it has not keyed, or whose section the table
// lacked when it did, and a candidate's word until the merge interns it.
// No admitted key has it.
const noSection = ^uint32(0)

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
//
// A state is its key: one interned id per node section and one for the
// explorer-side state, nodes+1 words held once in an arena. The explorer
// keeps one noc.NodeRecord per section id; a worker rebuilds a parent by
// restoring the nodes whose live section differs from the parent's,
// which is sound on the contract the visited set already rests on: equal
// sections are bisimilar. A successor's key starts as its parent's, and
// only the nodes the transition can have changed are encoded again.
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

// explorer is one Explore call's search state. The workers read the
// intern tables, the arena, the index and level while they expand a
// level; only the merge, which runs while they wait, writes them.
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
	// nodes is the network's node count and width the words of a key:
	// one per node, then the shadow's.
	nodes, width int

	// sections interns every distinct node section of the network's
	// canonical encoding (noc.Network.AppendCanonicalNode) seen so far,
	// and records holds, per section id, a node saved with that section
	// (the first in frontier order); recordBytes is what they retain.
	// shadows interns the explorer-side keys (appendShadowKey) the same
	// way, and shadowKeys holds them by id for restoring. A key word per
	// node section and one for the shadow is exact: sections are
	// self-delimiting, so two states have equal keys exactly when their
	// full encodings are equal.
	sections    map[string]uint32
	records     []*noc.NodeRecord
	recordBytes int
	shadows     map[string]uint32
	shadowKeys  []string

	// keys is the arena of every admitted state's key, width words each,
	// in id order; index is the visited set over it, open addressed
	// with linear probing: a slot holds a state id plus one, or 0 when
	// empty, and is found from the top bits of the key's hash (shift is
	// 64 minus their count). It is never more than half full.
	keys   []uint32
	index  []int32
	shift  uint
	states []state

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
// carries its key, its still-unknown sections with a record of each,
// and its count of packets in flight.
type worker struct {
	m     *machine
	start chan struct{}
	// lo and hi bound the worker's chunk of the level.
	lo, hi int

	// live is the key of the worker's network as it stands: each node's
	// section id and the shadow's, or noSection where it is not known.
	live []uint32
	// quiet marks, for the parent being ticked, each node that was
	// noc.Network.NodeQuiet before the tick.
	quiet   []bool
	enabled []Choice
	sec     []byte
	// at is where the key being built starts in rows, and missAt where
	// its misses start in miss.
	at, missAt int

	// One level's output. outs is every transition of the chunk in
	// choice order, and expanded the end in outs of each parent
	// expanded. cands and rows hold the candidates, candidate i's key at
	// rows[i*width:]; raw is the arena the misses index into. stop says
	// why the worker ended its chunk early.
	outs     []outcome
	expanded []int
	cands    []candidate
	rows     []uint32
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
	missLo, missHi int
	inFlight       int32
	terminal, full bool
}

// missing is a key word the intern tables lacked: word slot of the
// candidate's key (a node, or nodes for the shadow) stays noSection
// until the merge interns raw[lo:hi], keeping rec, a record of the node,
// if the section is still new then.
type missing struct {
	slot, lo, hi int
	rec          *noc.NodeRecord
}

type stopReason uint8

const (
	stopNone stopReason = iota
	stopBudget
	stopDeadlock
)

func newExplorer(sc *Scenario, opt Options, start time.Time) (*explorer, error) {
	nodes := sc.Width * sc.Height
	x := &explorer{
		opt:      opt,
		start:    start,
		done:     make(chan struct{}, opt.workers),
		nodes:    nodes,
		width:    nodes + 1,
		sections: make(map[string]uint32),
		shadows:  make(map[string]uint32),
		index:    make([]int32, 1<<10),
		shift:    64 - 10,
	}
	for i := 0; i < opt.workers; i++ {
		m, err := newMachine(sc, nil)
		if err != nil {
			x.close()
			return nil, err
		}
		w := &worker{m: m, live: make([]uint32, x.width), quiet: make([]bool, nodes)}
		for k := range w.live {
			w.live[k] = noSection
		}
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
	x.admitRoot()
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
		x.level, x.next = x.next, x.level[:0]
	}
	if ce, lap := findLivelock(x.states); ce != nil {
		x.res.Counterexample = ce
		return Livelocked, fmt.Sprintf("tick cycle of %d states never completes delivery", lap)
	}
	return Proved, fmt.Sprintf("all %d states deliver %d/%d packets; %d terminal states",
		x.res.States, x.res.Expected, x.res.Expected, x.res.Terminals)
}

// admitRoot keys worker 0's fresh network in full and admits it as
// state 0, queued in x.next.
func (x *explorer) admitRoot() {
	w := x.workers[0]
	w.reset()
	w.begin(w.live)
	for node := 0; node < x.nodes; node++ {
		w.encode(x, node)
	}
	ci := ^w.successor(x, int(w.m.n.Stats().InFlight()))
	x.admit(w, int(ci), -1, Choice{}, 0)
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
			x.frontierBytes -= heldBytes
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
						"quiescent state with %d/%d packets delivered and %d packets in flight",
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

// admit resolves candidate ci of worker w: it interns the key words the
// worker could not, keeping the worker's record of each section that is
// still new, and either finds the state visited or appends its key to
// the arena, numbers it and queues it for expansion unless it is
// terminal. It returns the state's id.
func (x *explorer) admit(w *worker, ci int, parent int32, c Choice, depth int) int32 {
	cd := &w.cands[ci]
	key := w.rows[ci*x.width : (ci+1)*x.width]
	for _, ms := range w.miss[cd.missLo:cd.missHi] {
		key[ms.slot] = x.intern(w.raw[ms.lo:ms.hi], ms.slot, ms.rec)
	}
	h := hashKey(key)
	if id, seen := x.lookup(key, h); seen {
		return id
	}
	id := int32(len(x.states))
	x.keys = append(x.keys, key...)
	x.insert(id, h)
	x.states = append(x.states, state{parent: parent, op: c.Op, src: int32(c.Src), tickSucc: -1, terminal: cd.terminal, full: cd.full})
	x.res.States++
	x.res.Deepest = max(x.res.Deepest, depth)
	if cd.terminal {
		x.res.Terminals++
	} else {
		x.next = append(x.next, held{id: id, inFlight: cd.inFlight})
		x.frontierBytes += heldBytes
		x.res.PeakFrontier = max(x.res.PeakFrontier, x.pending+len(x.next))
	}
	x.res.PeakFrontierBytes = max(x.res.PeakFrontierBytes, x.frontierBytes+x.recordBytes)
	return id
}

// intern returns the id of raw in the table of key word slot: the
// shadows for slot nodes, else the node sections, where a new section
// keeps rec as its record.
func (x *explorer) intern(raw []byte, slot int, rec *noc.NodeRecord) uint32 {
	if slot == x.nodes {
		sid, ok := x.shadows[string(raw)]
		if !ok {
			sid = uint32(len(x.shadowKeys))
			k := string(raw)
			x.shadows[k] = sid
			x.shadowKeys = append(x.shadowKeys, k)
		}
		return sid
	}
	sid, ok := x.sections[string(raw)]
	if !ok {
		sid = uint32(len(x.records))
		x.sections[string(raw)] = sid
		x.records = append(x.records, rec)
		x.recordBytes += rec.Bytes()
	}
	return sid
}

// key returns state id's key in the arena.
func (x *explorer) key(id int32) []uint32 {
	return x.keys[int(id)*x.width : (int(id)+1)*x.width]
}

// hashKey mixes a key's words into a hash whose top bits pick its slot.
func hashKey(key []uint32) uint64 {
	var h uint64
	for _, k := range key {
		h = (h ^ uint64(k)) * 0x9e3779b97f4a7c15
	}
	return h
}

// lookup returns the id of the state whose key is key, which hashes to
// h, and whether there is one.
func (x *explorer) lookup(key []uint32, h uint64) (int32, bool) {
	mask := len(x.index) - 1
	for i := int(h >> x.shift); ; i = (i + 1) & mask {
		e := x.index[i]
		if e == 0 {
			return 0, false
		}
		if slices.Equal(x.key(e-1), key) {
			return e - 1, true
		}
	}
}

// insert files state id, whose key hashes to h, in the index, doubling
// the index first if id would fill more than half of it.
func (x *explorer) insert(id int32, h uint64) {
	if 2*(int(id)+1) > len(x.index) {
		x.index = make([]int32, 2*len(x.index))
		x.shift--
		for old := int32(0); old < id; old++ {
			x.place(old, hashKey(x.key(old)))
		}
	}
	x.place(id, h)
}

// place files id in the first empty slot from h's.
func (x *explorer) place(id int32, h uint64) {
	mask := len(x.index) - 1
	i := int(h >> x.shift)
	for x.index[i] != 0 {
		i = (i + 1) & mask
	}
	x.index[i] = id + 1
}

// reset empties the worker's per-level output.
func (w *worker) reset() {
	w.outs, w.expanded, w.cands = w.outs[:0], w.expanded[:0], w.cands[:0]
	w.rows, w.raw = w.rows[:0], w.raw[:0]
	clear(w.miss)
	w.miss = w.miss[:0]
	w.stop = stopNone
}

// expand applies every enabled choice to every parent of the worker's
// chunk. It reads the intern tables, the arena and the index as they
// stood when the level began and writes nothing outside the worker.
//
// The tick is enabled in every state and is the first choice, but it is
// applied last: an injection or a sabotage changes one node, so the next
// choice restores that node alone, where a tick changes several. Its
// outcome still takes the first place in outs, so the merge sees the
// transitions in choice order.
func (w *worker) expand(x *explorer) {
	m := w.m
	for i := w.lo; i < w.hi; i++ {
		if x.opt.Budget > 0 && time.Since(x.start) > x.opt.Budget {
			w.stop = stopBudget
			return
		}
		p := x.level[i]
		// The enabled set derives from the parent's shadow.
		w.restore(x, x.key(p.id))
		w.enabled = m.choices(w.enabled)
		tickAt := len(w.outs)
		w.outs = append(w.outs, outcome{c: w.enabled[0]})
		for _, c := range w.enabled[1:] {
			// An injection or a sabotage changes node c.Src alone.
			inFlight := w.apply(x, p, c)
			w.encode(x, c.Src)
			w.outs = append(w.outs, outcome{c: c, succ: w.successor(x, inFlight)})
		}

		inFlight := w.apply(x, p, w.enabled[0])
		for node, q := range w.quiet {
			// A node quiet before and after the tick keeps its section.
			if !q || !m.n.NodeQuiet(node) {
				w.encode(x, node)
			}
		}
		id := w.successor(x, inFlight)
		w.outs[tickAt].succ = id
		w.expanded = append(w.expanded, len(w.outs))
		if id == p.id && m.fullyInjected() {
			// The merge stops here with a deadlock verdict.
			w.deadDelivered, w.deadInFlight = len(m.led.delivered), inFlight
			w.stop = stopDeadlock
			return
		}
	}
}

// apply rebuilds parent p on the worker's machine, notes before a tick
// which nodes are quiet, applies c and starts the successor's key as a
// copy of p's. It returns the successor's packets in flight: the
// collector is not restored with the nodes, but what a transition adds
// to it or takes from it is the transition's.
func (w *worker) apply(x *explorer, p held, c Choice) int {
	m := w.m
	parent := x.key(p.id)
	w.restore(x, parent)
	if c.Op == OpTick {
		for node := range w.quiet {
			w.quiet[node] = m.n.NodeQuiet(node)
		}
	}
	before := m.n.Stats().InFlight()
	m.apply(c)
	w.begin(parent)
	return int(p.inFlight) + int(m.n.Stats().InFlight()-before)
}

// begin starts a key in w.rows as a copy of from.
func (w *worker) begin(from []uint32) {
	w.at, w.missAt = len(w.rows), len(w.miss)
	w.rows = append(w.rows, from...)
}

// successor finishes the key begun in w.rows, whose node words are
// encoded or kept from the parent, with the shadow's. If the state was
// visited when the level began it drops the key and returns the state's
// id; else it records the machine's state, with inFlight packets in
// flight, as a candidate and returns the complement of its index.
func (w *worker) successor(x *explorer, inFlight int) int32 {
	w.encodeShadow(x)
	key := w.rows[w.at:]
	if assertEnabled {
		w.assertKept(x, key)
	}
	if len(w.miss) == w.missAt {
		if id, seen := x.lookup(key, hashKey(key)); seen {
			w.rows = w.rows[:w.at]
			return id
		}
	}
	w.cands = append(w.cands, candidate{missLo: w.missAt, missHi: len(w.miss),
		inFlight: int32(inFlight), terminal: w.m.terminal(inFlight), full: w.m.fullyInjected()})
	return ^int32(len(w.cands) - 1)
}

// restore rebuilds the key parent on the worker's machine: the nodes
// whose live section differs from the parent's are restored from the
// table's records, the others already hold a bisimilar state, and the
// explorer-side state comes from the parent's shadow unless it is live.
func (w *worker) restore(x *explorer, parent []uint32) {
	for node, sid := range parent[:x.nodes] {
		if sid != w.live[node] {
			w.m.n.RestoreNode(node, x.records[sid])
			w.live[node] = sid
		}
	}
	if sid := parent[x.nodes]; sid != w.live[x.nodes] {
		w.m.restoreShadowKey(x.shadowKeys[sid])
		w.live[x.nodes] = sid
	}
}

// encode sets node's word of the key begun in w.rows to the intern id
// of its live section. A section the table lacks is copied to w.raw and
// listed in w.miss with a record of the node, its word left noSection
// for the merge to fill in.
func (w *worker) encode(x *explorer, node int) {
	w.sec = w.m.n.AppendCanonicalNode(w.sec[:0], node)
	if !w.setWord(node, x.sections) {
		w.miss[len(w.miss)-1].rec = w.m.n.SaveNode(node)
	}
}

// encodeShadow sets the shadow's word of the key begun in w.rows the way
// encode sets a node's, with no record.
func (w *worker) encodeShadow(x *explorer) {
	w.sec = w.m.appendShadowKey(w.sec[:0])
	w.setWord(x.nodes, x.shadows)
}

// setWord sets word slot of the key begun in w.rows, and of w.live, to
// the id table holds for w.sec and reports whether it holds one; if not,
// the word is noSection and w.sec is listed in w.miss.
func (w *worker) setWord(slot int, table map[string]uint32) bool {
	sid, ok := table[string(w.sec)]
	if !ok {
		sid = noSection
		lo := len(w.raw)
		w.raw = append(w.raw, w.sec...)
		w.miss = append(w.miss, missing{slot: slot, lo: lo, hi: len(w.raw)})
	}
	w.rows[w.at+slot] = sid
	w.live[slot] = sid
	return ok
}

// assertKept encodes every node again and panics if a word of key names
// a section other than the node's: it catches a node the explorer kept
// from the parent that the transition changed. It runs under the
// nocassert build tag only.
func (w *worker) assertKept(x *explorer, key []uint32) {
	for node, sid := range key[:x.nodes] {
		w.sec = w.m.n.AppendCanonicalNode(w.sec[:0], node)
		if got, ok := x.sections[string(w.sec)]; sid != noSection && (!ok || got != sid) {
			panic(fmt.Sprintf("modelcheck: node %d keeps section %d, but its live section is not that one", node, sid))
		}
	}
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
		out = append(out, states[id].choice())
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
