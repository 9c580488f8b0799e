// Command doclint enforces the repository's godoc contract: every
// exported identifier in the audited packages — top-level functions,
// methods, types, consts, vars, struct fields and interface methods —
// must carry a doc comment. CI runs it after gofmt and vet; it exits
// non-zero listing every undocumented identifier.
//
//	go run ./cmd/doclint              # audit the default package set
//	go run ./cmd/doclint ./internal/hdc ./internal/core
//
// The default set is the serving surface: the cyberhd facade plus
// internal/bitpack, internal/quantize and internal/pipeline.
//
// Either way it also checks, over every Go file of the module it is run
// from, that what a comment cites exists: a Markdown or Go file, beside
// the comment or from the module root, and a test function of the module,
// where a trailing * stands for every test with that prefix. Test names
// cited in README.md and ARCHITECTURE.md are checked too; CHANGES.md and
// ROADMAP.md are history and may name tests since removed. A comment that
// sends the reader to something nobody wrote is reported like a missing
// doc comment.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// defaultDirs is the audited package set when no arguments are given.
var defaultDirs = []string{".", "./internal/bitpack", "./internal/quantize", "./internal/pipeline"}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var problems []string
	for _, dir := range dirs {
		ps, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(1)
		}
		problems = append(problems, ps...)
	}
	dangling, err := lintDocRefs(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	bad := report(problems, "exported identifiers without doc comments")
	bad = report(dangling, "citations of a file or test that does not exist") || bad
	if bad {
		os.Exit(1)
	}
}

// report prints one sorted block of problem lines and says whether there
// were any.
func report(problems []string, what string) bool {
	if len(problems) == 0 {
		return false
	}
	sort.Strings(problems)
	fmt.Fprintf(os.Stderr, "doclint: %d %s:\n", len(problems), what)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, " ", p)
	}
	return true
}

// Citation patterns in comment text: a Markdown or Go file name, with or
// without a directory, and a test function name, or a prefix of some
// ending in *.
var (
	fileRef = regexp.MustCompile(`(?:[A-Za-z0-9_-]+/)*[A-Za-z0-9_][A-Za-z0-9_.-]*\.(?:md|go)\b`)
	testRef = regexp.MustCompile(`\bTest[A-Z]\w*\*?`)
)

// testedDocs are the Markdown files whose test citations are checked.
var testedDocs = []string{"README.md", "ARCHITECTURE.md"}

// lintDocRefs walks the Go files of the module rooted at root — tests
// included; nested modules, testdata and hidden directories skipped — and
// returns one problem line per citation, in a comment or in testedDocs, of
// a file or test function that does not exist. A cited file is looked up
// beside the comment and from root.
func lintDocRefs(root string) ([]string, error) {
	var problems []string
	tests := map[string]bool{}
	type citation struct{ where, name string }
	var cited []citation
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					tests[fn.Name.Name] = true
				}
			}
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				p := fset.Position(c.Pos())
				where := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				for _, name := range fileRef.FindAllString(c.Text, -1) {
					_, beside := os.Stat(filepath.Join(filepath.Dir(path), name))
					_, fromRoot := os.Stat(filepath.Join(root, name))
					if beside != nil && fromRoot != nil {
						problems = append(problems, fmt.Sprintf("%s: %s", where, name))
					}
				}
				for _, name := range testRef.FindAllString(c.Text, -1) {
					cited = append(cited, citation{where, name})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, doc := range testedDocs {
		path := filepath.Join(root, doc)
		raw, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, name := range testRef.FindAllString(line, -1) {
				cited = append(cited, citation{fmt.Sprintf("%s:%d", path, i+1), name})
			}
		}
	}
	for _, c := range cited {
		found := tests[c.name]
		if prefix, ok := strings.CutSuffix(c.name, "*"); ok {
			for name := range tests {
				found = found || strings.HasPrefix(name, prefix)
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("%s: %s", c.where, c.name))
		}
	}
	return problems, nil
}

// lintDir parses every non-test Go file directly in dir and returns one
// problem line per undocumented exported identifier.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s %s", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "func", funcName(d))
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return problems, nil
}

// funcName renders a function or method name, including the receiver type.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// lintGenDecl checks type, const and var declarations. A doc comment on
// the grouped declaration covers its specs; an undocumented spec inside an
// undocumented group is reported per exported name. Struct fields and
// interface methods of exported types are audited too (doc comment above
// or line comment beside either counts).
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			if !ts.Name.IsExported() {
				continue
			}
			if d.Doc == nil && ts.Doc == nil {
				report(ts.Pos(), "type", ts.Name.Name)
			}
			switch t := ts.Type.(type) {
			case *ast.StructType:
				for _, f := range t.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() && f.Doc == nil && f.Comment == nil {
							report(f.Pos(), "field", ts.Name.Name+"."+n.Name)
						}
					}
				}
			case *ast.InterfaceType:
				for _, m := range t.Methods.List {
					for _, n := range m.Names {
						if n.IsExported() && m.Doc == nil && m.Comment == nil {
							report(m.Pos(), "interface method", ts.Name.Name+"."+n.Name)
						}
					}
				}
			}
		}
	case token.CONST, token.VAR:
		kind := "const"
		if d.Tok == token.VAR {
			kind = "var"
		}
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			if d.Doc != nil || vs.Doc != nil || vs.Comment != nil {
				continue
			}
			for _, n := range vs.Names {
				if n.IsExported() {
					report(n.Pos(), kind, n.Name)
				}
			}
		}
	}
}
