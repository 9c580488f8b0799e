package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintDocRefs: a comment naming a Markdown file that is not there is
// reported with its position; one naming a file that exists — at the
// root or under a directory — is not, and nested modules, testdata and
// non-Go files are not read at all. The two dangling comments are the
// ones internal/experiments carried until the check existed.
func TestLintDocRefs(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"README.md":       "# readme\n",
		"docs/FORMATS.md": "# formats\n",
		"go.mod":          "module example\n",
		"a/runner.go": "package a\n\n" +
			"// The constants below were calibrated so the reproduction matches the paper's\n" +
			"// qualitative results (see EXPERIMENTS.md) and shared by every figure.\n" +
			"const X = 1 // see README.md and docs/FORMATS.md\n",
		"a/fig5_test.go": "package a\n\n" +
			"/* percentage points;\n   paper values in parentheses in EXPERIMENTS.md). */\n",
		"nested/go.mod":         "module nested\n",
		"nested/n.go":           "package nested // see GONE.md\n",
		"a/testdata/fixture.go": "package fixture // see GONE.md\n",
		"a/notes.txt":           "see GONE.md\n",
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
	want := []string{
		filepath.Join(root, "a/fig5_test.go") + ":3: EXPERIMENTS.md",
		filepath.Join(root, "a/runner.go") + ":4: EXPERIMENTS.md",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lintDocRefs:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepoDocRefsResolve runs the check on this repository: every
// Markdown file a comment points at is checked in.
func TestRepoDocRefsResolve(t *testing.T) {
	got, err := lintDocRefs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		t.Fatalf("comments name Markdown files that do not exist:\n%s", strings.Join(got, "\n"))
	}
}
