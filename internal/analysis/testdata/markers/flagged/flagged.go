// Fixture: //noc: directives the marker grammar rejects — a misspelled
// marker, a marker with trailing text, and markers on the wrong kind of
// declaration or on none. Each would otherwise turn its check off
// without a word (tick and step allocate, yet no hot-path proof runs);
// each is reported by the pseudo-analyzer nocvet and takes no effect.
package core

type ring struct {
	buf []int
	//noc:hot-path // want `//noc:hot-path marks a function declaration: here it marks nothing`
	n int
	m int //noc:committed by the commit phase // want `//noc:committed takes no reason: a marker with trailing text is ignored`
}

//noc:committed // want `//noc:committed marks a struct field: here it marks nothing`
type latch struct{ v int }

//noc:hotpath // want `unknown marker //noc:hotpath: a misspelled marker turns its check off`
func (r *ring) tick(n int) {
	r.buf = make([]int, n)
}

//noc:hot-path root of the step // want `//noc:hot-path takes no reason`
func (r *ring) step(n int) {
	r.buf = make([]int, n)
}

//noc:derived per-cycle scratch // want `//noc:derived marks a struct field: here it marks nothing`
func (r *ring) reset() {
	//noc:compute-phase // want `//noc:compute-phase marks a function declaration: here it marks nothing`
	r.buf = r.buf[:0]
}
