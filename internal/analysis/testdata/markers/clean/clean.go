// Fixture: all seven //noc: markers where the grammar puts them —
// function markers in a function's doc comment, several to a function
// if need be; field markers in a field's doc or trailing comment, again
// several to a field; //noc:derived with its reason. Prose that quotes a
// marker is not a directive:
// //noc:commit-only functions must not be reached from the compute phase.
package core

type latch struct {
	//noc:committed
	//noc:derived immutable configuration, fixed at construction
	depth int
	seq   int //noc:committed
	//noc:derived per-cycle scratch, empty at the step boundary
	scratch []int
}

// step is a compute-phase root on the hot path.
//
//noc:compute-phase
//noc:hot-path
func (l *latch) step() {
	l.scratch = l.scratch[:0]
}

//noc:commit-only
func (l *latch) commit() { l.seq++ }

//noc:credit-accessor
func (l *latch) credit() {}

//noc:worker-pool
func (l *latch) pool() {}
