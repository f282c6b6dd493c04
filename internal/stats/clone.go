package stats

import "gonoc/internal/flit"

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

// Checkpoint is a collector's state held by value — the scalar fields
// and the four histogram structs in one block — so a network snapshot
// embeds it and saving into it allocates nothing, not even the first
// time. The histograms' counts stay shared copy-on-write, as with Clone.
// The zero Checkpoint restores the zero Collector.
type Checkpoint struct {
	c Collector // its histogram pointers are nil; hists holds the values
	// hists is lat, net, then classLat; meaningful only when has is set
	// (a collector allocates its histograms together or not at all).
	hists [2 + flit.NumClasses]Histogram
	has   bool
}

// SaveTo overwrites cp with the collector's state.
func (c *Collector) SaveTo(cp *Checkpoint) {
	cp.c = *c
	cp.c.lat, cp.c.net, cp.c.classLat = nil, nil, [flit.NumClasses]*Histogram{}
	if cp.has = c.lat != nil; !cp.has {
		return
	}
	c.lat.cloneInto(&cp.hists[0])
	c.net.cloneInto(&cp.hists[1])
	for i, h := range c.classLat {
		h.cloneInto(&cp.hists[2+i])
	}
}

// RestoreFrom overwrites c with the state cp holds, in c's own storage
// like CopyFrom: the collector and the histogram structs it already
// holds are reused, so a pointer to c obtained earlier reads the
// restored values and a restore allocates nothing in the steady state.
func (c *Collector) RestoreFrom(cp *Checkpoint) {
	lat, net, classLat := c.lat, c.net, c.classLat
	*c = cp.c
	if !cp.has {
		return
	}
	c.lat = cp.hists[0].cloneInto(lat)
	c.net = cp.hists[1].cloneInto(net)
	for i := range classLat {
		c.classLat[i] = cp.hists[2+i].cloneInto(classLat[i])
	}
}
