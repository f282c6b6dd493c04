package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// dispatchQuiet runs dispatch with stdout and stderr captured.
func dispatchQuiet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	stdout, _ = captureStdout(t, func() error {
		stderr, _ = capture(t, &os.Stderr, func() error {
			code = dispatch(args)
			return nil
		})
		return nil
	})
	return code, stdout, stderr
}

// TestCommandTable pins the CLI surface: help lists the table's nine
// commands and nothing else, every command and view answers -h with exit
// 0, the retired names are unknown commands, and stray flags and
// arguments are errors.
func TestCommandTable(t *testing.T) {
	want := []string{"paper", "campaign", "latency", "sim", "observe", "ablation", "record", "replay", "check"}
	code, help, _ := dispatchQuiet(t, "help")
	if code != 0 {
		t.Fatalf("help exited %d", code)
	}
	section := help[strings.Index(help, "commands:\n")+len("commands:\n"):]
	section = section[:strings.Index(section, "\n\n")]
	var listed []string
	for _, line := range strings.Split(section, "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if fmt.Sprint(listed) != fmt.Sprint(want) {
		t.Fatalf("help lists %v, want %v", listed, want)
	}

	for _, name := range want {
		if code, _, _ := dispatchQuiet(t, name, "-h"); code != 0 {
			t.Errorf("%s -h exited %d, want 0", name, code)
		}
	}
	for _, v := range views {
		if code, _, _ := dispatchQuiet(t, "observe", v.name, "-h"); code != 0 {
			t.Errorf("observe %s -h exited %d, want 0", v.name, code)
		}
	}
	retired := []string{"tables", "spf", "area", "critpath", "serve", "metrics", "spans", "heatmap", "flightrec", "trace"}
	for _, name := range retired {
		code, _, stderr := dispatchQuiet(t, name)
		if code != 2 || !strings.Contains(stderr, "unknown command") {
			t.Errorf("retired %s: exit %d, stderr %q; want 2 and unknown command", name, code, firstLine(stderr))
		}
	}
	for _, args := range [][]string{
		{"paper", "-x"}, {"paper", "extra"}, {"ablation", "-cycles", "10", "extra"},
		{"observe", "metrics", "extra"}, {"check", "-w", "2", "-h"},
	} {
		if code, _, _ := dispatchQuiet(t, args...); code != 1 {
			t.Errorf("%v exited %d, want 1", args, code)
		}
	}
}

// TestPackageDocListsCommands: the package doc's command list is the
// table, row for row.
func TestPackageDocListsCommands(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:strings.Index(string(src), "package main")])
	var got, want []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "//\t") && !strings.Contains(line, "-pprof") {
			got = append(got, strings.TrimPrefix(line, "//\t"))
		}
	}
	for _, c := range commands {
		want = append(want, fmt.Sprintf("%-9s %s", c.name, c.summary))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("package doc lists\n%s\nthe command table says\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestExperimentsDocIsCurrent regenerates every block EXPERIMENTS.md
// holds between `<!-- noctool <args> -->` and `<!-- /noctool -->` by
// running `noctool <args>`, and requires the fenced output to match it
// byte for byte: the document's numbers are the program's output.
func TestExperimentsDocIsCurrent(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := regexp.MustCompile("(?s)<!-- noctool ([^>]*?) -->\n```[a-z]*\n(.*?)```\n<!-- /noctool -->").
		FindAllStringSubmatch(string(doc), -1)
	if len(blocks) < 2 {
		t.Fatalf("EXPERIMENTS.md holds %d generated blocks, want the paper and campaign ones", len(blocks))
	}
	for _, b := range blocks {
		args, text := strings.Fields(b[1]), b[2]
		code, got, stderr := dispatchQuiet(t, args...)
		if code != 0 {
			t.Fatalf("noctool %s exited %d: %s", b[1], code, stderr)
		}
		if got == text {
			continue
		}
		have, gen := strings.Split(text, "\n"), strings.Split(got, "\n")
		for i := 0; ; i++ {
			if i >= len(have) || i >= len(gen) || have[i] != gen[i] {
				t.Errorf("EXPERIMENTS.md's `noctool %s` block differs from the output at line %d:\n doc: %q\n now: %q\n"+
					"(regenerate the block with `go run ./cmd/noctool %s`)", b[1], i+1, at(have, i), at(gen, i), b[1])
				break
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of block>"
}

func firstLine(s string) string { return strings.SplitN(s, "\n", 2)[0] }

// TestDocsNameRegisteredCommands: every `noctool <word>` in the user
// docs, the verify recipe and this command's sources names a row of the
// command table (or help), and every `noctool observe <word>` a view.
// DESIGN.md is exempt: its history paragraphs record past commands. In
// the same files and DESIGN.md's §3 inventory, every `go run ./<path>`
// and `examples/<name>` names a directory that exists. In the docs,
// the verify recipe and all of DESIGN.md, every Test, Benchmark, Example
// or Fuzz name cited names a function of some _test.go in the module or
// the benchmark module; a name followed by ( or * is a -run pattern or
// a glob and is skipped.
func TestDocsNameRegisteredCommands(t *testing.T) {
	files := []string{
		filepath.Join("..", "..", "doc.go"),
		filepath.Join("..", "..", "README.md"),
		filepath.Join("..", "..", "EXPERIMENTS.md"),
		filepath.Join("..", "..", ".claude", "skills", "verify", "SKILL.md"),
	}
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"help": true}
	for _, c := range commands {
		known[c.name] = true
	}
	knownView := map[string]bool{}
	for _, v := range views {
		knownView[v.name] = true
	}
	mention := regexp.MustCompile(`\bnoctool ([a-z]+)( [a-z]+)?`)
	dir := regexp.MustCompile("go run \\./([^\\s`'\")<]+)|\\b(examples/[A-Za-z0-9_]+)")
	checkDirs := func(path, text string, first int) {
		for i, line := range strings.Split(text, "\n") {
			for _, m := range dir.FindAllStringSubmatch(line, -1) {
				rel := m[1] + m[2]
				if fi, err := os.Stat(filepath.Join("..", "..", rel)); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names %s, which is not a directory", path, first+i, rel)
				}
			}
		}
	}
	for _, path := range append(files, sources...) {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range mention.FindAllStringSubmatch(line, -1) {
				switch view := strings.TrimSpace(m[2]); {
				case !known[m[1]]:
					t.Errorf("%s:%d names `noctool %s`, which is not a command", path, i+1, m[1])
				case m[1] == "observe" && view != "" && !knownView[view]:
					t.Errorf("%s:%d names `noctool observe %s`, which is not a view", path, i+1, view)
				}
			}
		}
		checkDirs(path, string(text), 1)
	}
	design := filepath.Join("..", "..", "DESIGN.md")
	text, err := os.ReadFile(design)
	if err != nil {
		t.Fatal(err)
	}
	defined := testFuncs(t, filepath.Join("..", ".."))
	cite := regexp.MustCompile(`\b((?:Test|Benchmark|Example|Fuzz)[A-Z_]\w*)([(*]?)`)
	for _, path := range append(files, design) {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(doc), "\n") {
			for _, m := range cite.FindAllStringSubmatch(line, -1) {
				if m[2] == "" && !defined[m[1]] {
					t.Errorf("%s:%d cites %s, which no _test.go defines", path, i+1, m[1])
				}
			}
		}
	}
	start := strings.Index(string(text), "\n## 3.")
	end := strings.Index(string(text), "\n## 4.")
	if start < 0 || end < start {
		t.Fatalf("%s: no §3 inventory before §4", design)
	}
	checkDirs(design, string(text[start+1:end]), strings.Count(string(text[:start+1]), "\n")+1)
}

// testFuncs returns the names of the Test, Benchmark, Example and Fuzz
// functions of every _test.go under root, skipping directories whose
// names start with a dot (.git, build output).
func testFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example|Fuzz)\w*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
