package stats

// share marks h's counts as aliased, so the next write to h, or to a
// copy of h, copies them first. It writes only when h is not marked
// yet: a histogram that is already shared — a copy held by a snapshot —
// is only read, so one copy can be copied from on several goroutines at
// once.
func (h *Histogram) share() {
	if !h.shared {
		h.shared = true
	}
}

// Clone returns an independent copy of the histogram. The counts buffer
// is shared copy-on-write — both histograms are marked shared and the
// next write to either copies what exists of it first (512 bytes while
// the histogram is still short) — so cloning is O(1), which keeps
// noc.Snapshot and noc.Restore from copying up to 33 KB per histogram.
func (h *Histogram) Clone() *Histogram {
	h.share()
	cp := *h
	return &cp
}

// Clone returns an independent copy of the collector; see CopyFrom.
func (c *Collector) Clone() *Collector {
	cp := new(Collector)
	cp.CopyFrom(c)
	return cp
}

// CopyFrom overwrites c with an independent copy of src, in c's own
// storage, so a pointer to c obtained earlier reads the copied values:
// noc.Snapshot copies a network's statistics out this way and
// noc.Restore rolls them back along with the rest of the state. The
// histograms' counts are shared copy-on-write as Histogram.Clone shares
// them, so a copy is O(1) and allocates nothing. src is written only to mark its
// histograms shared, and only those not marked yet: copying back from a
// copy only reads it, so one snapshot restores into several collectors
// at once.
func (c *Collector) CopyFrom(src *Collector) {
	src.lat.share()
	src.net.share()
	for i := range src.classLat {
		src.classLat[i].share()
	}
	*c = *src
}
