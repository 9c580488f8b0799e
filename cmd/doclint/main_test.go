package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLintDocRefs: a citation of a file or test that is not there is
// reported with its position; one of a file that exists — beside the
// comment, or at the root or under a directory of it — or of a test
// function, by name or by a prefix ending in *, is not. Tests cited in README.md count, an absent
// ARCHITECTURE.md cites nothing, and nested modules, testdata and non-Go
// files are not read at all. The dangling Markdown and Go citations are
// ones internal/experiments carried until the checks existed.
func TestLintDocRefs(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"README.md":       "# readme\nTestFig5 and TestGone\n",
		"docs/FORMATS.md": "# formats\n",
		"go.mod":          "module example\n",
		"a/runner.go": "package a\n\n" +
			"// The constants below were calibrated so the reproduction matches the paper's\n" +
			"// qualitative results (see EXPERIMENTS.md) and shared by every figure.\n" +
			"const X = 1 // see README.md and docs/FORMATS.md\n\n" +
			"// See runner.go, a/fig5_test.go and fig3.go/fig5_test.go; TestFig* and TestFig5 pin them.\n" +
			"const Y = 2\n",
		"a/fig5_test.go": "package a\n\n" +
			"/* percentage points;\n   paper values in parentheses in EXPERIMENTS.md). */\n\n" +
			"// TestFig5 and TestFig6 check it.\n" +
			"func TestFig5(t *testing.T) {}\n",
		"nested/go.mod":         "module nested\n",
		"nested/n.go":           "package nested // see GONE.md, gone.go, TestGone\n",
		"a/testdata/fixture.go": "package fixture // see GONE.md, gone.go, TestGone\n",
		"a/notes.txt":           "see GONE.md, gone.go, TestGone\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := lintDocRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{
		filepath.Join(root, "README.md") + ":2: TestGone",
		filepath.Join(root, "a/fig5_test.go") + ":3: EXPERIMENTS.md",
		filepath.Join(root, "a/fig5_test.go") + ":6: TestFig6",
		filepath.Join(root, "a/runner.go") + ":4: EXPERIMENTS.md",
		filepath.Join(root, "a/runner.go") + ":7: fig3.go",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lintDocRefs:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepoDocRefsResolve runs the check on this repository: every file a
// comment cites is checked in, and every test it or the documents cite
// exists.
func TestRepoDocRefsResolve(t *testing.T) {
	got, err := lintDocRefs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		t.Fatalf("citations of files or tests that do not exist:\n%s", strings.Join(got, "\n"))
	}
}

// TestLintFacade: a root name selected from a command counts, and so does
// one selected only from a nested module under bench/; names spelled only
// in a string literal or a comment are reported, as is one nothing spells.
// Methods, unexported names and test-file declarations of the root
// package are not facade names.
func TestLintFacade(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module cyberhd\n",
		"cyberhd.go": "package cyberhd\n\n" +
			"func Used() {}\n\n" +
			"type T int\n\n" +
			"func (T) Method() {}\n\n" +
			"func hidden() {}\n\n" +
			"var (\n\tInBench   = 1\n\tInString  = 2\n\tInComment = 3\n)\n\n" +
			"const Unspelled = 4\n",
		"cyberhd_test.go": "package cyberhd\n\nfunc Helper() {}\n",
		"cmd/tool/main.go": "package main\n\n" +
			"import \"cyberhd\"\n\n" +
			"// cyberhd.InComment is named here only.\n" +
			"func main() {\n\tvar t cyberhd.T\n\t_ = t\n\tcyberhd.Used()\n\tprintln(\"see cyberhd.InString\")\n}\n",
		"examples/demo/main.go": "package main\n\nimport \"cyberhd\"\n\nfunc main() { cyberhd.Used() }\n",
		"bench/go.mod":          "module cyberhd/bench\n\nrequire cyberhd v0.0.0\n",
		"bench/main.go":         "package main\n\nimport \"cyberhd\"\n\nfunc main() { println(cyberhd.InBench) }\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := lintFacade(root)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	at := filepath.Join(root, "cyberhd.go")
	want := []string{at + ":14: InComment", at + ":13: InString", at + ":17: Unspelled"}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lintFacade:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepoFacadeNamesHaveCallers runs the check on this repository: every
// facade name is selected by a command, an example or the benchmark.
func TestRepoFacadeNamesHaveCallers(t *testing.T) {
	got, err := lintFacade("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		t.Fatalf("facade names nothing under cmd/, examples/ or bench/ selects:\n%s", strings.Join(got, "\n"))
	}
}
