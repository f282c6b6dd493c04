package obs

import (
	"cmp"
	"math"
	"slices"
	"unsafe"

	"gonoc/internal/sim"
)

// eventStore is the one event storage behind the Tracer and the
// FlightRecorder, lock-free: in the parallel compute phase only a node's
// worker emits the node's events, every other emitter runs in a serial
// phase, and so do record and every read. No two stepping networks may
// share a store.
type eventStore struct {
	lanes []eventLane // one per node, carved from one slab

	// global holds events whose Router names no node, each slot's router
	// beside it in routers: globalCap slots, allocated on first use.
	global    eventLane
	routers   []int32
	globalCap int

	// details interns Detail strings (only serial-phase fault events
	// carry one), so a slot holds a 16-bit handle, not a string header.
	details   []string
	detailIdx map[string]uint16
}

// eventSlot is a stored event: 24 bytes and pointer-free, so a ring is
// half the size of the Events it stands for and the garbage collector
// never scans it. The router is the lane's.
type eventSlot struct {
	cycle  sim.Cycle
	arg    int32
	arg2   int32
	detail uint16 // 1-based index into eventStore.details; 0 is none
	kind   EventKind
	port   int8
	vc     int8
}

// EventSlotBytes is the memory one retained event takes in a trace or
// flight-recorder ring.
const EventSlotBytes = int(unsafe.Sizeof(eventSlot{}))

// eventLane is one ring with its cursor beside it, so a store touches the
// header's cache line and the slot's and nothing else.
type eventLane struct {
	next  int32  // slot the next event lands in
	total uint64 // lifetime stores; min(total, len(ring)) slots are filled
	ring  []eventSlot
}

// claim returns the slot the next event lands in, the oldest one when
// the ring is full, and advances the cursor past it.
func (l *eventLane) claim() *eventSlot {
	s := &l.ring[l.next]
	if l.next++; int(l.next) == len(l.ring) {
		l.next = 0
	}
	l.total++
	return s
}

// put stores s, overwriting the oldest slot when the ring is full.
func (l *eventLane) put(s eventSlot) { *l.claim() = s }

// set fills s with a handle's event field by field: building the slot
// elsewhere and copying it in would read back its narrow fields as one
// wide load, which the store buffer cannot forward.
func (s *eventSlot) set(cy sim.Cycle, kind EventKind, port, vcIdx int8, arg, arg2 int32) {
	s.cycle, s.arg, s.arg2 = cy, arg, arg2
	s.detail, s.kind, s.port, s.vc = 0, kind, port, vcIdx
}

// size carves nodes lanes of perLane slots from one slab; the global
// lane gets perLane too unless it holds events already.
func (s *eventStore) size(nodes, perLane int) {
	s.lanes = make([]eventLane, nodes)
	slab := make([]eventSlot, nodes*perLane)
	for i := range s.lanes {
		s.lanes[i].ring = slab[i*perLane : (i+1)*perLane : (i+1)*perLane]
	}
	if s.global.ring == nil {
		s.globalCap = perLane
	}
}

// lane returns node id's lane, or nil when the store was sized for fewer
// nodes (a handle bound past it records nothing).
func (s *eventStore) lane(id int32) *eventLane {
	if id < 0 || int(id) >= len(s.lanes) {
		return nil
	}
	return &s.lanes[id]
}

// intern returns detail's handle, 0 for the empty string — and for a new
// string once all 65,535 handles are taken, which degrades that event's
// Detail to empty rather than growing without bound.
func (s *eventStore) intern(detail string) uint16 {
	if detail == "" {
		return 0
	}
	h, ok := s.detailIdx[detail]
	if !ok && len(s.details) < math.MaxUint16 {
		if s.detailIdx == nil {
			s.detailIdx = map[string]uint16{}
		}
		s.details = append(s.details, detail)
		h = uint16(len(s.details))
		s.detailIdx[detail] = h
	}
	return h
}

// record stores e in its router's lane, or in the global lane when the
// router names no node, overwriting the oldest event when full. It
// allocates only to intern a new Detail and for the first global event.
func (s *eventStore) record(e Event) {
	sl := eventSlot{
		cycle: e.Cycle, arg: e.Arg, arg2: e.Arg2, detail: s.intern(e.Detail),
		kind: e.Kind, port: e.Port, vc: e.VC,
	}
	if l := s.lane(e.Router); l != nil {
		l.put(sl)
		return
	}
	g := &s.global
	if g.ring == nil {
		g.ring, s.routers = make([]eventSlot, s.globalCap), make([]int32, s.globalCap)
	}
	s.routers[g.next] = e.Router
	g.put(sl)
}

// Total returns how many events were recorded over the lifetime,
// including overwritten ones.
func (s *eventStore) Total() uint64 {
	total, _ := s.count()
	return total
}

// count returns how many events were recorded and how many the lanes
// still hold.
func (s *eventStore) count() (total uint64, retained int) {
	add := func(l *eventLane) {
		total += l.total
		retained += int(min(l.total, uint64(len(l.ring))))
	}
	for i := range s.lanes {
		add(&s.lanes[i])
	}
	add(&s.global)
	return total, retained
}

// appendLane appends l's events to out, oldest first. id is the router of
// a node lane's slots; routers, when non-nil, names each slot's router.
func (s *eventStore) appendLane(out []Event, l *eventLane, id int32, routers []int32) []Event {
	size := len(l.ring)
	n := int(min(l.total, uint64(size)))
	for k := 0; k < n; k++ {
		i := (int(l.next) - n + k + size) % size
		sl := &l.ring[i]
		e := Event{
			Cycle: sl.cycle, Kind: sl.kind, Router: id,
			Port: sl.port, VC: sl.vc, Arg: sl.arg, Arg2: sl.arg2,
		}
		if routers != nil {
			e.Router = routers[i]
		}
		if sl.detail != 0 {
			e.Detail = s.details[sl.detail-1]
		}
		out = append(out, e)
	}
	return out
}

// events returns every retained event in merge order: each lane read
// oldest first, stably ordered by (cycle, router). Equal keys share a
// lane, so a router's events keep their emission order (Router.Tick's,
// which BuildSpans depends on) at any worker count. The sort runs in
// place: the result is the one allocation.
func (s *eventStore) events() []Event {
	_, n := s.count()
	evs := make([]Event, 0, n)
	for id := range s.lanes {
		evs = s.appendLane(evs, &s.lanes[id], int32(id), nil)
	}
	evs = s.appendLane(evs, &s.global, 0, s.routers)
	slices.SortStableFunc(evs, mergeCmp)
	return evs
}

// mergeCmp orders events by (cycle, router).
func mergeCmp(a, b Event) int {
	return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Router, b.Router))
}
