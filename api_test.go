package asha

import (
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestPublicAPIGolden pins the package's exported surface: every
// exported declaration, doc comments, function bodies and blank lines
// left out, sorted by name, must match testdata/api.golden. A change to
// the surface is a deliberate one: rerun with -update and review the
// diff.
func TestPublicAPIGolden(t *testing.T) {
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0) // no comments: no docs
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro")
	if err != nil {
		t.Fatal(err)
	}

	gofmt := printer.Config{Mode: printer.TabIndent, Tabwidth: 8}
	type decl struct{ name, text string }
	var decls []decl
	add := func(name string, d ast.Decl) {
		if fn, ok := d.(*ast.FuncDecl); ok {
			sig := *fn
			sig.Body = nil
			d = &sig
		}
		var b strings.Builder
		if err := gofmt.Fprint(&b, fset, d); err != nil {
			t.Fatal(err)
		}
		// Where a field's comment stood the printer keeps a blank line,
		// which also splits the fields' alignment: drop blank lines and
		// align nothing, so that editing a comment leaves the surface as is.
		var text strings.Builder
		for _, line := range strings.Split(b.String(), "\n") {
			if fields := strings.Fields(line); len(fields) > 0 {
				text.WriteString(line[:len(line)-len(strings.TrimLeft(line, "\t"))])
				text.WriteString(strings.Join(fields, " "))
				text.WriteString("\n")
			}
		}
		decls = append(decls, decl{name, text.String()})
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			add(v.Names[0], v.Decl)
		}
	}
	funcs := func(prefix string, fs []*doc.Func) {
		for _, f := range fs {
			add(prefix+f.Name, f.Decl)
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs("", pkg.Funcs)
	for _, typ := range pkg.Types {
		add(typ.Name, typ.Decl)
		values(typ.Consts)
		values(typ.Vars)
		funcs("", typ.Funcs)
		funcs(typ.Name+".", typ.Methods)
	}
	sort.SliceStable(decls, func(i, j int) bool { return decls[i].name < decls[j].name })

	var b strings.Builder
	for _, d := range decls {
		b.WriteString(d.text)
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("the exported surface changed; if on purpose, rerun with -update:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
