//go:build !race

package modelcheck

// raceEnabled reports whether the race detector is compiled in. The
// exhaustive sweeps are CPU-bound and gain little from the detector
// beyond what TestExploreWorkers' small scenarios give it, so the large
// ones skip under -race; the CI model-checking tier runs them without
// the detector instead.
const raceEnabled = false
