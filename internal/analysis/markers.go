package analysis

import (
	"fmt"
	"strings"
)

// The //noc: markers wire the analyzers to the code they guard. Each is
// written on its own line inside a declaration's doc comment (functions)
// or in a struct field's doc or trailing line comment (fields).
const (
	// MarkerWorkerPool sanctions go/select statements inside the marked
	// function: the compute-phase worker pool in internal/noc is the one
	// place simulation code may spawn goroutines.
	MarkerWorkerPool = "//noc:worker-pool"
	// MarkerComputePhase marks a compute-phase entry point: the function
	// (and everything statically reachable from it inside the package)
	// runs concurrently across nodes and must stay node-local.
	MarkerComputePhase = "//noc:compute-phase"
	// MarkerCommitOnly marks a commit-side entry point: it mutates
	// cross-node state and must never be reached from the compute phase.
	MarkerCommitOnly = "//noc:commit-only"
	// MarkerCommitted marks a struct field holding committed cross-node
	// state: compute-phase code must not write it.
	MarkerCommitted = "//noc:committed"
	// MarkerCreditAccessor marks a function as part of the audited
	// credit-mutation surface: credit-counter arithmetic is legal only
	// inside marked functions.
	MarkerCreditAccessor = "//noc:credit-accessor"
	// MarkerHotPath marks a steady-state hot-path root: the function and
	// everything statically reachable from it must be free of
	// allocation-inducing constructs (hotpathalloc).
	MarkerHotPath = "//noc:hot-path"
	// MarkerDerived marks a struct field as deliberately outside part or
	// all of the Save/Restore/AppendCanonical snapshot triple. It takes a
	// mandatory reason: "//noc:derived <reason>" — recomputed on restore,
	// immutable configuration, per-cycle scratch, observational-only, or
	// covered through accessors (snapshotcomplete).
	MarkerDerived = "//noc:derived"
)

// What a marker sits on.
const (
	onFunc  = "function declaration"
	onField = "struct field"
)

// markerGrammar is the //noc: grammar, DESIGN.md §6's marker table as
// data: each marker, what it sits on, and whether it carries a reason.
// Only a comment line beginning with "//noc:" is a directive; one the
// grammar rejects is reported (pseudo-analyzer "nocvet") and ignored, so
// a misspelled or misplaced marker cannot silently turn a proof off.
var markerGrammar = []struct {
	marker string
	on     string
	reason bool
}{
	{MarkerWorkerPool, onFunc, false},
	{MarkerComputePhase, onFunc, false},
	{MarkerCommitOnly, onFunc, false},
	{MarkerCommitted, onField, false},
	{MarkerCreditAccessor, onFunc, false},
	{MarkerHotPath, onFunc, false},
	{MarkerDerived, onField, true},
}

// markerSet maps each marker on a declaration to its reason ("" for
// none); the first occurrence wins.
type markerSet map[string]string

func (m markerSet) has(marker string) bool {
	_, ok := m[marker]
	return ok
}

// parseMarker reads one comment line as a //noc: directive sitting on a
// declaration of kind on ("" for anything else). It returns the marker
// and its reason, or — for a directive the grammar rejects — the
// problem; a line that is no directive yields three empty strings.
func parseMarker(text, on string) (marker, reason, problem string) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "//noc:") {
		return "", "", ""
	}
	marker = strings.Fields(text)[0]
	reason = strings.TrimSpace(text[len(marker):])
	var known []string
	for _, rule := range markerGrammar {
		switch {
		case rule.marker != marker:
			known = append(known, rule.marker)
		case rule.on != on:
			return "", "", fmt.Sprintf("%s marks a %s: here it marks nothing", marker, rule.on)
		case reason != "" && !rule.reason:
			return "", "", fmt.Sprintf("%s takes no reason: a marker with trailing text is ignored — move the text to a comment line of its own", marker)
		default:
			return marker, reason, ""
		}
	}
	return "", "", fmt.Sprintf("unknown marker %s: a misspelled marker turns its check off — the markers are %s", marker, strings.Join(known, ", "))
}

// simPackages are the packages making up the simulated hardware model:
// everything here must be deterministic and race-free under the sharded
// compute phase, so the determinism and creditflow analyzers
// scope to this set. internal/stats rides along because the collectors
// feed the bit-exact conformance comparisons.
var simPackages = map[string]bool{
	"gonoc/internal/core":      true,
	"gonoc/internal/noc":       true,
	"gonoc/internal/vc":        true,
	"gonoc/internal/arbiter":   true,
	"gonoc/internal/crossbar":  true,
	"gonoc/internal/router":    true,
	"gonoc/internal/ftrouters": true,
	"gonoc/internal/stats":     true,
}

// nocPackage is the one package whose marked worker pool may use
// goroutines.
const nocPackage = "gonoc/internal/noc"

// basePkgPath strips the external-test suffix, so scoping treats a
// package and its test packages alike.
func basePkgPath(path string) string {
	return strings.TrimSuffix(path, "_test")
}

// inSimScope reports whether the pass's package is one of the simulation
// packages (or one of their test packages).
func inSimScope(pass *Pass) bool {
	return simPackages[basePkgPath(pass.PkgPath)]
}
