package stats

// Clone returns an independent copy of the histogram. The bounds slice
// is shared (it is read-only by contract); the counts buffer is shared
// copy-on-write — both histograms are marked shared and the next write
// to either copies what exists of it first (512 bytes while the
// histogram is still short) — so cloning is O(1), which the model
// checker's snapshot-per-state exploration depends on. Clone of a nil
// histogram returns nil, matching the collector's lazy histogram
// allocation.
func (h *Histogram) Clone() *Histogram { return h.cloneInto(nil) }

// cloneInto is Clone writing into dst's storage when dst is non-nil.
func (h *Histogram) cloneInto(dst *Histogram) *Histogram {
	if h == nil {
		return nil
	}
	if dst == nil {
		dst = new(Histogram)
	}
	h.shared = true
	*dst = *h
	return dst
}

// Clone returns an independent deep copy of the collector, for
// checkpoint/restore: the model checker snapshots a network mid-run and
// must be able to roll its statistics back along with the rest of the
// state. Clone of a nil collector returns nil.
func (c *Collector) Clone() *Collector {
	if c == nil {
		return nil
	}
	cp := new(Collector)
	cp.CopyFrom(c)
	return cp
}

// CopyFrom overwrites c with an independent copy of src, as Clone
// would produce, but in c's own storage: the collector and the
// histogram structs it already holds are reused, so a pointer to c
// obtained earlier reads the copied values. Snapshot recycling and
// Network.Restore depend on it allocating nothing in the steady state.
func (c *Collector) CopyFrom(src *Collector) {
	lat, net, classLat := c.lat, c.net, c.classLat
	*c = *src
	c.lat = src.lat.cloneInto(lat)
	c.net = src.net.cloneInto(net)
	for i := range classLat {
		c.classLat[i] = src.classLat[i].cloneInto(classLat[i])
	}
}
