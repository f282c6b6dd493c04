package analysis

// All returns the nocvet analyzer suite in reporting order: the three
// determinism, phase-safety and credit-flow analyzers, then the three
// contract provers (snapshot completeness, hot-path allocation freedom,
// counter parity).
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		PhaseSafety,
		CreditFlow,
		SnapshotComplete,
		HotPathAlloc,
		CounterParity,
	}
}
