package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path analyzers scope on. External test
	// packages carry the under-test path plus a "_test" suffix.
	PkgPath string
	// Dir is the package directory.
	Dir string
	// Fset positions for Files.
	Fset *token.FileSet
	// Files is the parsed syntax (with comments).
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo is the type-checker output for Files.
	TypesInfo *types.Info
	// TypeErrors collects type-checking problems. Analysis still runs —
	// the checker recovers per-declaration — but findings in broken
	// regions may be incomplete, so drivers surface these.
	TypeErrors []error
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	Export       string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Error        *struct{ Err string }
}

// goList runs `go list` with the given arguments in dir and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPackage
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %s: decoding output: %v", strings.Join(args, " "), err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// ModuleRoot locates the enclosing module's directory (the directory of
// go.mod), so loads behave identically from any working directory.
func ModuleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module (GOMOD=%q)", gomod)
	}
	return filepath.Dir(gomod), nil
}

// Load lists, parses and type-checks the packages matched by patterns
// (with the given build tags, comma- or space-separated, possibly empty),
// including their test files.
//
// Every in-module package — matched or merely depended upon — is
// type-checked from source against one shared importer, so package
// identity is consistent everywhere (a *noc.Network seen through
// internal/fault is the same type as one named directly). Standard
// library dependencies are imported from compiled export data.
//
// Each matched package yields one Package for its GoFiles+TestGoFiles
// and, when present, a second Package for its external (package foo_test)
// test files.
func Load(dir, tags string, patterns ...string) ([]*Package, error) {
	tagArgs := []string{}
	if tags != "" {
		tagArgs = append(tagArgs, "-tags", tags)
	}
	targets, err := goList(dir, append(tagArgs, patterns...)...)
	if err != nil {
		return nil, err
	}
	isTarget := map[string]bool{}
	extra := []string{}
	seen := map[string]bool{}
	for _, p := range targets {
		if p.Standard || p.Dir == "" || len(p.GoFiles)+len(p.TestGoFiles)+len(p.XTestGoFiles) == 0 {
			continue
		}
		isTarget[p.ImportPath] = true
		seen[p.ImportPath] = true
		for _, imps := range [][]string{p.TestImports, p.XTestImports} {
			for _, imp := range imps {
				if !seen[imp] {
					seen[imp] = true
					extra = append(extra, imp)
				}
			}
		}
	}
	if len(isTarget) == 0 {
		return nil, fmt.Errorf("no Go packages matched %v", patterns)
	}
	// -deps emits dependencies before dependents, which is exactly the
	// order source checking needs.
	deps, exports, err := listExports(dir, append(append(tagArgs, patterns...), extra...)...)
	if err != nil {
		return nil, err
	}
	ld := newLoader(exports)

	// Pass 1: source-check every in-module package (production files
	// only) in dependency order, so all cross-package references share
	// one identity per type.
	var modPkgs []*listPackage
	imports := map[string][]string{}
	for _, p := range deps {
		if p.Standard || p.Dir == "" || len(p.GoFiles) == 0 {
			continue
		}
		modPkgs = append(modPkgs, p)
		imports[p.ImportPath] = p.Imports
		pkg, err := ld.check(ld.imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		ld.module[p.ImportPath] = pkg.Types
	}

	// Pass 2: re-check each target with its in-package test files
	// merged. In-package tests cannot import anything that depends on
	// the package under test (Go rejects the cycle), so the pass-1
	// import identities stay consistent.
	var pkgs []*Package
	for _, p := range modPkgs {
		if !isTarget[p.ImportPath] {
			continue
		}
		files := append(append([]string{}, p.GoFiles...), p.TestGoFiles...)
		pkg, err := ld.check(ld.imp, p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
		if len(p.XTestGoFiles) == 0 {
			continue
		}
		// External test packages may import module packages that
		// themselves import the package under test. Like the go tool,
		// re-check that reverse closure against the test-augmented
		// package so every path agrees on its identity.
		variant := map[string]*types.Package{p.ImportPath: pkg.Types}
		vimp := &overrideImporter{base: ld.imp, override: variant}
		for _, q := range modPkgs {
			if q.ImportPath != p.ImportPath && transitivelyImports(imports, q.ImportPath, p.ImportPath) {
				vpkg, err := ld.check(vimp, q.ImportPath, q.Dir, q.GoFiles)
				if err != nil {
					return nil, fmt.Errorf("%s [%s.test]: %v", q.ImportPath, p.ImportPath, err)
				}
				variant[q.ImportPath] = vpkg.Types
			}
		}
		xpkg, err := ld.check(vimp, p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
		if err != nil {
			return nil, fmt.Errorf("%s [test]: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, xpkg)
	}
	return pkgs, nil
}

// transitivelyImports reports whether package from (transitively)
// imports target, following the production import graph.
func transitivelyImports(imports map[string][]string, from, target string) bool {
	seen := map[string]bool{}
	var walk func(p string) bool
	walk = func(p string) bool {
		if seen[p] {
			return false
		}
		seen[p] = true
		for _, imp := range imports[p] {
			if imp == target || walk(imp) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// listExports runs `go list -export -deps` over args in dir, returning
// the listed packages, dependencies first, and the export-data file of
// each package that has one, by import path.
func listExports(dir string, args ...string) ([]*listPackage, map[string]string, error) {
	deps, err := goList(dir, append([]string{"-export", "-deps"}, args...)...)
	if err != nil {
		return nil, nil, err
	}
	exports := map[string]string{}
	for _, p := range deps {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return deps, exports, nil
}

// loader shares one FileSet and importer across packages. In-module
// packages are resolved from module (filled as source checking
// proceeds, in dependency order); everything else comes from compiled
// export data.
type loader struct {
	fset    *token.FileSet
	exports map[string]string
	module  map[string]*types.Package
	imp     types.Importer
}

// newLoader returns a loader importing from the given export data.
func newLoader(exports map[string]string) *loader {
	ld := &loader{fset: token.NewFileSet(), exports: exports, module: map[string]*types.Package{}}
	ld.imp = &overrideImporter{base: importer.ForCompiler(ld.fset, "gc", ld.lookup), override: ld.module}
	return ld
}

// lookup feeds the gc importer the export-data file recorded by go list.
func (ld *loader) lookup(path string) (io.ReadCloser, error) {
	f, ok := ld.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

// overrideImporter resolves the named packages from memory and everything
// else through the underlying export-data importer.
type overrideImporter struct {
	base     types.Importer
	override map[string]*types.Package
}

func (o *overrideImporter) Import(path string) (*types.Package, error) {
	if p, ok := o.override[path]; ok {
		return p, nil
	}
	return o.base.Import(path)
}

// check parses and type-checks one package's files, resolving imports
// through imp: the shared importer, or a test variant's.
func (ld *loader) check(imp types.Importer, pkgPath, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(pkgPath, ld.fset, files, info) // errors collected above
	return &Package{
		PkgPath:    pkgPath,
		Dir:        dir,
		Fset:       ld.fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
		TypeErrors: typeErrs,
	}, nil
}

// LoadFixture parses and type-checks a single directory of Go files as a
// package with the given (possibly fake) import path — the analysistest
// harness uses this to place fixture packages inside the scopes the
// analyzers guard. Imports resolve against exports, the export data of
// listExports, so fixtures may import every package it lists: one
// listing of the module's packages serves every fixture.
func LoadFixture(exports map[string]string, dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	ld := newLoader(exports)
	return ld.check(ld.imp, pkgPath, dir, names)
}
