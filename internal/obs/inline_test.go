package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/analysis"
)

// TestHandlesInline pins what observability off costs: every exported
// RouterObs and NodeObs method must be inlinable, and every call of one
// in core and noc must be inlined, so a site with a nil handle costs
// one nil test and never a call. It compiles the three packages with
// -gcflags=-m and reads the compiler's inlining decisions; a handle that
// grows past the inliner's budget fails here.
func TestHandlesInline(t *testing.T) {
	root, err := analysis.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-gcflags=-m", "./internal/obs", "./internal/core", "./internal/noc")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	decisions := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// "internal/core/pipeline.go:100:20: inlining call to obs.(*RouterObs).RCCompute"
		if pos, msg, ok := strings.Cut(sc.Text(), ": "); ok {
			decisions[msg] = true
			decisions[filepath.ToSlash(pos)+": "+msg] = true
		}
	}

	for _, h := range []any{(*RouterObs)(nil), (*NodeObs)(nil)} {
		typ := reflect.TypeOf(h)
		for i := 0; i < typ.NumMethod(); i++ {
			name := fmt.Sprintf("(*%s).%s", typ.Elem().Name(), typ.Method(i).Name)
			if !decisions["can inline "+name] {
				t.Errorf("%s is not inlinable: a nil handle would cost a call per event", name)
			}
		}
	}

	pkgs, err := analysis.Load(root, "", "./internal/core", "./internal/noc")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			file := pkg.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok {
					return true
				}
				recv := fn.Type().(*types.Signature).Recv()
				if recv == nil || fn.Pkg() == nil || fn.Pkg().Path() != "gonoc/internal/obs" {
					return true
				}
				handle := types.TypeString(recv.Type(), func(*types.Package) string { return "" })
				if handle != "*RouterObs" && handle != "*NodeObs" {
					return true
				}
				calls++
				pos := pkg.Fset.Position(call.Lparen)
				rel, err := filepath.Rel(root, pos.Filename)
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("%s:%d:%d: inlining call to obs.(%s).%s", filepath.ToSlash(rel), pos.Line, pos.Column, handle, fn.Name())
				if !decisions[want] {
					t.Errorf("%s:%d: the call to (%s).%s is not inlined", rel, pos.Line, handle, fn.Name())
				}
				return true
			})
		}
	}
	if calls == 0 {
		t.Fatal("found no handle calls in core and noc")
	}
	t.Logf("%d handle call sites in core and noc", calls)
}
