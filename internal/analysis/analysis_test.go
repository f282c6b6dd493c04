package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestParseIgnores covers the directive grammar directly: coverage of the
// directive's own line and the line below, and the malformed
// (reason-less) form being reported instead of honored.
func TestParseIgnores(t *testing.T) {
	src := `package p

func a() {
	//nocvet:ignore determinism standalone with reason
	_ = 1
	_ = 2 //nocvet:ignore creditflow trailing with reason
	//nocvet:ignore determinism
	_ = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	set := parseIgnores(fset, []*ast.File{f})
	malformed := set.malformed
	if len(malformed) != 1 {
		t.Fatalf("malformed directives: got %d, want 1 (%v)", len(malformed), malformed)
	}
	if !strings.Contains(malformed[0].Message, "malformed //nocvet:ignore") {
		t.Errorf("malformed message = %q", malformed[0].Message)
	}
	if malformed[0].Pos.Line != 7 {
		t.Errorf("malformed directive line = %d, want 7", malformed[0].Pos.Line)
	}

	covers := func(line int, analyzer string) bool {
		for _, d := range set.byLine["ignore.go"][line] {
			if d.analyzer == analyzer {
				return true
			}
		}
		return false
	}
	// Standalone form: own line (4) and the line below (5).
	if !covers(4, "determinism") || !covers(5, "determinism") {
		t.Error("standalone directive must cover its line and the next")
	}
	// Trailing form covers its own line.
	if !covers(6, "creditflow") {
		t.Error("trailing directive must cover its line")
	}
	// The malformed directive must not suppress anything.
	if covers(8, "determinism") {
		t.Error("reason-less directive must not suppress")
	}
}

// TestIndex pins what the analyzers read from the package index: display
// names and the production bit, markers, call edges with their
// closure/panic flag, reachability with root attribution, and the
// lvalue walker's outermost-first field order.
func TestIndex(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, src := range []struct{ name, text string }{
		{"p.go", `package p

type T struct {
	f struct{ g []int }
	n int //noc:committed
}

//noc:hot-path
func (t *T) root() {
	t.leaf()
	go func() { t.lit() }()
	panic(t.msg())
}

func (t *T) leaf()       { t.f.g[0] = 1 }
func (t *T) lit()        {}
func (t *T) msg() string { return "" }
`},
		{"p_test.go", "package p\n\nfunc helper() {}\n"},
	} {
		f, err := parser.ParseFile(fset, src.name, src.text, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	if _, err := (&types.Config{}).Check("p", fset, files, info); err != nil {
		t.Fatal(err)
	}
	ix := newIndex(&Package{Fset: fset, Files: files, TypesInfo: info})

	var got []string
	for _, fn := range ix.funcs {
		got = append(got, fmt.Sprintf("%s prod=%v", fn.name, fn.prod))
	}
	if want := "T.root prod=true, T.leaf prod=true, T.lit prod=true, T.msg prod=true, helper prod=false"; strings.Join(got, ", ") != want {
		t.Errorf("funcs = %s, want %s", strings.Join(got, ", "), want)
	}
	if len(ix.prodFiles) != 1 || len(ix.malformed) != 0 {
		t.Errorf("prodFiles = %d, malformed = %v; want 1 file and no findings", len(ix.prodFiles), ix.malformed)
	}
	root, leaf := ix.funcs[0], ix.funcs[1]
	got = nil
	for _, c := range root.calls {
		got = append(got, fmt.Sprintf("%s:%v", c.callee.name, c.inLitOrPanic))
	}
	if want := "T.leaf:false, T.lit:true, T.msg:true"; !root.markers.has(MarkerHotPath) || strings.Join(got, ", ") != want {
		t.Errorf("root markers %v, calls %s; want hot-path and %s", root.markers, strings.Join(got, ", "), want)
	}
	for _, c := range []struct {
		all  bool
		want string
	}{{false, "T.root, T.leaf"}, {true, "T.root, T.leaf, T.lit, T.msg"}} {
		got = nil
		for _, r := range ix.reach([]*funcInfo{root}, c.all) {
			if r.root != root {
				t.Errorf("%s attributed to %s, want T.root", r.fn.name, r.root.name)
			}
			got = append(got, r.fn.name)
		}
		if strings.Join(got, ", ") != c.want {
			t.Errorf("reach(all=%v) = %s, want %s", c.all, strings.Join(got, ", "), c.want)
		}
	}
	var n *types.Var
	for v, ms := range ix.fieldMarks {
		if ms.has(MarkerCommitted) {
			n = v
		}
	}
	if n == nil || n.Name() != "n" || len(ix.fieldMarks) != 1 {
		t.Errorf("fieldMarks = %v, want field n committed", ix.fieldMarks)
	}
	target := leaf.decl.Body.List[0].(*ast.AssignStmt).Lhs[0] // t.f.g[0]
	fields, rootID := lvalue(info, target)
	if len(fields) != 2 || fields[0].v.Name() != "g" || fields[1].v.Name() != "f" || rootID == nil || rootID.Name != "t" {
		t.Errorf("lvalue(t.f.g[0]) = %v rooted at %v, want fields g, f rooted at t", fields, rootID)
	}
}
