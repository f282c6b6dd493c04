// Command nocvet runs gonoc's invariant analyzer suite over the module.
//
// Usage:
//
//	go run ./cmd/nocvet [-tags taglist] [-run name,name] [-json] [-o file] [packages]
//
// With no packages it analyzes ./.... By default it prints one line per
// finding
//
//	file:line:col: [analyzer] message
//
// and exits 2 when any finding (or type error) survives, so CI can gate
// on it exactly like go vet. -json emits a machine-readable report
// instead ({"findings": [...], "count": N}). -o writes that report to a
// file while the human-readable lines still go to stdout, which is what
// the CI annotation step uses. Type errors are reported as findings of
// the pseudo-analyzer "typecheck".
//
// Findings are suppressed in place with "//nocvet:ignore <analyzer>
// <reason>" on the offending line or the line above it; a directive that
// suppresses nothing is itself a finding (pseudo-analyzer "nocvet"), so
// the -fix for a stale waiver is simply deleting the line the finding
// points at. So is a //noc: marker the marker grammar rejects.
//
// The analyzers and the rules they enforce are documented in
// internal/analysis and in DESIGN.md's "Machine-checked invariants"
// section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gonoc/internal/analysis"
)

func main() {
	tags := flag.String("tags", "", "build tags for package loading (comma-separated)")
	runOnly := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of plain lines")
	outFile := flag.String("o", "", "also write the JSON report to this file (plain lines still go to stdout)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: nocvet [-tags taglist] [-run name,name] [-json] [-o file] [packages]")
		fmt.Fprintln(os.Stderr, "analyzers:")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	diags, err := run(*tags, *runOnly, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocvet: %v\n", err)
		os.Exit(1)
	}

	switch {
	case *outFile != "":
		if err := os.WriteFile(*outFile, jsonReport(diags), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "nocvet: %v\n", err)
			os.Exit(1)
		}
		printPlain(os.Stdout, diags)
	case *jsonOut:
		os.Stdout.Write(jsonReport(diags))
	default:
		printPlain(os.Stdout, diags)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// run loads the packages and applies the selected analyzers as one
// suite, so cross-package facts flow and stale suppressions surface.
// Type errors become "typecheck" findings.
func run(tags, runOnly string, patterns []string) ([]analysis.Diagnostic, error) {
	analyzers := analysis.All()
	if runOnly != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(runOnly, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			analyzers = append(analyzers, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := analysis.ModuleRoot()
	if err != nil {
		return nil, err
	}
	pkgs, err := analysis.Load(root, tags, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			diags = append(diags, analysis.Diagnostic{
				Analyzer: "typecheck",
				Message:  terr.Error(),
			})
		}
	}
	suite, err := analysis.RunSuite(pkgs, analyzers)
	if err != nil {
		return diags, err
	}
	return append(diags, suite...), nil
}

// printPlain writes the classic one-line-per-finding format, or the
// NOCVET-CLEAN sentinel when there is nothing to report.
func printPlain(w io.Writer, diags []analysis.Diagnostic) {
	if len(diags) == 0 {
		fmt.Fprintln(w, "NOCVET-CLEAN")
		return
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s\n", d)
	}
}

// jsonFinding is the -json wire format for one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport renders {"findings": [...], "count": N}.
func jsonReport(diags []analysis.Diagnostic) []byte {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	out, _ := json.MarshalIndent(map[string]any{
		"findings": findings,
		"count":    len(findings),
	}, "", "  ")
	return append(out, '\n')
}
