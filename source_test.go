package asha

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
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// callerAllowlist names the non-test declarations that only tests of
// other packages reach, each with the reason it stays. A row that names
// a live declaration, or none, fails TestEveryDeclarationHasACaller.
var callerAllowlist = map[string]string{
	"searchspace.Space.Contains": "the oracle the bayesopt tests hold every proposal to",
	"searchspace.Space.Param":    "the root, ashasim and workload tests look a dimension up by name",
	"state.ReopenWriter":         "the in-memory twin of Scanner.Reopen that the backend crash tests resume through",
	"core.ASHA.RungSizes":        "bench_test.go in the root package prints the rung sizes of a run",
	"curve.Surface.Quality":      "the reference the tabulated Eval is held to bit for bit, in the curve and workload tests",
}

const callerAllowlistCap = 15

// TestEveryDeclarationHasACaller holds every package-level declaration
// of a non-test file to a non-test caller (DESIGN.md, "Layering"): code
// that only tests reach is deleted, or moved into a _test.go file of
// its package.
func TestEveryDeclarationHasACaller(t *testing.T) {
	if raceEnabled {
		t.Skip("a static source check has nothing to race")
	}
	tree := loadRepo(t)
	dead, decls := tree.census()
	if len(callerAllowlist) > callerAllowlistCap {
		t.Errorf("the allowlist has %d rows, over its cap of %d", len(callerAllowlist), callerAllowlistCap)
	}
	var report []string
	for _, d := range dead {
		if _, ok := callerAllowlist[d.name]; !ok {
			report = append(report, d.String())
		}
	}
	if len(report) > 0 {
		t.Errorf("no caller outside tests (%d): delete each, or move it into a _test.go file of its package\n%s",
			len(report), strings.Join(report, "\n"))
	}
	isDead := map[string]bool{}
	for _, d := range dead {
		isDead[d.name] = true
	}
	for name, reason := range callerAllowlist {
		switch {
		case !decls[name]:
			t.Errorf("allowlist row %q names no declaration", name)
		case !isDead[name]:
			t.Errorf("allowlist row %q names a declaration with a caller outside tests: drop the row", name)
		case reason == "":
			t.Errorf("allowlist row %q gives no reason", name)
		}
	}
}

// TestCallerCensusFixture pins the rule's edges on testdata/deadcode: an
// unused function, one that only calls itself and one that only a test
// calls have no caller; a method that satisfies fmt.Stringer and a
// generic method reached through an instantiation have one.
func TestCallerCensusFixture(t *testing.T) {
	if raceEnabled {
		t.Skip("a static source check has nothing to race")
	}
	tree, err := loadSource(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	dead, _ := tree.census()
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"fixture.unused", "fixture.countdown", "fixture.onlyTested"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("census of the fixture = %q, want %q", got, want)
	}
}

var designCitation = regexp.MustCompile(`DESIGN\.md,? "([^"]+)"`)

// TestDesignCitationsExist holds every Go comment that cites a DESIGN.md
// section by title to a heading that begins with that title.
func TestDesignCitationsExist(t *testing.T) {
	if raceEnabled {
		t.Skip("a static source check has nothing to race")
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(design), "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			headings = append(headings, title)
		} else if title, ok := strings.CutPrefix(line, "### "); ok {
			headings = append(headings, title)
		}
	}
	tree := loadRepo(t)
	cited := 0
	for _, p := range tree.pkgs {
		for _, f := range append(p.files, p.tests...) {
			for _, cg := range f.Comments {
				// A title may wrap: match on the group's joined text, and
				// blame the line where the citation starts.
				text := strings.Join(strings.Fields(cg.Text()), " ")
				var at []token.Pos
				for _, c := range cg.List {
					if strings.Contains(c.Text, "DESIGN.md") {
						at = append(at, c.Pos())
					}
				}
				for i, m := range designCitation.FindAllStringSubmatch(text, -1) {
					cited++
					found := false
					for _, h := range headings {
						found = found || strings.HasPrefix(h, m[1])
					}
					if !found {
						pos := tree.position(at[min(i, len(at)-1)])
						t.Errorf("%s:%d cites DESIGN.md %q, which has no such heading", pos.Filename, pos.Line, m[1])
					}
				}
			}
		}
	}
	if cited == 0 {
		t.Error("no comment cites a DESIGN.md section: the citation pattern matches nothing")
	}
}

var repoSource struct {
	once sync.Once
	tree *sourceTree
	err  error
}

// loadRepo loads this module, and bench/ for its references, once for
// every source test.
func loadRepo(t *testing.T) *sourceTree {
	repoSource.once.Do(func() {
		repoSource.tree, repoSource.err = loadSource(".", "bench")
	})
	if repoSource.err != nil {
		t.Fatal(repoSource.err)
	}
	return repoSource.tree
}

// sourceTree is a module type-checked from its non-test files, and
// every file parsed with its comments.
type sourceTree struct {
	root   string // the module's import path
	dir    string
	fset   *token.FileSet
	pkgs   []*sourcePkg // dependency order
	ifaces map[string][]*types.Interface
}

type sourcePkg struct {
	path  string
	types *types.Package
	info  *types.Info
	files []*ast.File // type-checked
	tests []*ast.File // parsed only
	// refOnly marks a package of another module: its references count,
	// its declarations are not held to the rule.
	refOnly bool
}

type listedPkg struct {
	ImportPath, Dir, Export            string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	Module                             *struct{ Path, Dir string }
}

func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles,Module"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadSource type-checks the module in dir from source, and the modules
// in refDirs (test files included) for their references. The standard
// library comes from the export data the go command builds and caches.
func loadSource(dir string, refDirs ...string) (*sourceTree, error) {
	tree := &sourceTree{fset: token.NewFileSet(), ifaces: map[string][]*types.Interface{}}
	byPath := map[string]*sourcePkg{}
	imports := map[string]bool{}
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(tree.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	for i, d := range append([]string{dir}, refDirs...) {
		listed, err := goList(d, "-deps", "./...")
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Standard || byPath[lp.ImportPath] != nil {
				continue
			}
			if i == 0 && tree.root == "" {
				tree.root, tree.dir = lp.Module.Path, lp.Module.Dir
			}
			p := &sourcePkg{path: lp.ImportPath, refOnly: i > 0}
			checked, parsed := lp.GoFiles, slices.Concat(lp.TestGoFiles, lp.XTestGoFiles)
			if p.refOnly {
				checked, parsed = slices.Concat(lp.GoFiles, lp.TestGoFiles), lp.XTestGoFiles
			}
			if p.files, err = parse(lp.Dir, checked); err != nil {
				return nil, err
			}
			if p.tests, err = parse(lp.Dir, parsed); err != nil {
				return nil, err
			}
			for _, f := range p.files {
				for _, imp := range f.Imports {
					imports[strings.Trim(imp.Path.Value, `"`)] = true
				}
			}
			byPath[p.path] = p
			tree.pkgs = append(tree.pkgs, p)
		}
	}
	var std []string
	for path := range imports {
		if byPath[path] == nil {
			std = append(std, path)
		}
	}
	listed, err := goList(dir, append([]string{"-deps", "-export"}, std...)...)
	if err != nil {
		return nil, err
	}
	export := map[string]string{}
	for _, lp := range listed {
		export[lp.ImportPath] = lp.Export
	}
	gc := importer.ForCompiler(tree.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	tree.addIfaces(types.Universe)
	for _, lp := range listed {
		pkg, err := gc.Import(lp.ImportPath)
		if err != nil {
			return nil, err
		}
		tree.addIfaces(pkg.Scope())
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p.types, nil
		}
		return gc.Import(path)
	})}
	for _, p := range tree.pkgs {
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		if p.types, err = conf.Check(p.path, tree.fset, p.files, p.info); err != nil {
			return nil, err
		}
		tree.addIfaces(p.types.Scope())
		for _, obj := range p.info.Defs {
			// A method of an interface literal, such as the one a type
			// assertion names.
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if iface, ok := recv.Type().(*types.Interface); ok {
						tree.ifaces[fn.Name()] = append(tree.ifaces[fn.Name()], iface)
					}
				}
			}
		}
	}
	return tree, nil
}

// position is pos with its file named relative to the module.
func (tree *sourceTree) position(pos token.Pos) token.Position {
	p := tree.fset.Position(pos)
	if rel, err := filepath.Rel(tree.dir, p.Filename); err == nil {
		p.Filename = rel
	}
	return p
}

// addIfaces indexes the interfaces a scope declares by method name.
func (tree *sourceTree) addIfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			tree.ifaces[m] = append(tree.ifaces[m], iface)
		}
	}
}

// A declaration is a package-level func, method, type, var or const of a
// non-test file, named pkg.Name or pkg.Type.Method.
type declaration struct {
	name string
	pos  token.Position
	obj  types.Object
	node ast.Node // its extent: a reference inside it is no caller
}

func (d declaration) String() string {
	return fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.name)
}

// census lists the declarations of the module that no non-test file, and
// no file of a reference module, refers to, in file order, and the
// names of every declaration. Live without a reference are main, init
// and _, the root package's exported API, and a method whose receiver
// implements an interface that has it.
func (tree *sourceTree) census() (dead []declaration, names map[string]bool) {
	var decls []declaration
	for _, p := range tree.pkgs {
		if p.refOnly {
			continue
		}
		add := func(id *ast.Ident, node ast.Node) {
			obj := p.info.Defs[id]
			if obj == nil {
				return
			}
			name := path.Base(p.path) + "."
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				name += receiverName(fn) + "."
			}
			decls = append(decls, declaration{name + id.Name, tree.position(id.Pos()), obj, node})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						}
					}
				}
			}
		}
	}
	extent := map[types.Object]ast.Node{}
	for _, d := range decls {
		extent[d.obj] = d.node
	}
	called := map[types.Object]bool{}
	for _, p := range tree.pkgs {
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if n := extent[obj]; n == nil || id.Pos() < n.Pos() || id.Pos() >= n.End() {
				called[obj] = true
			}
		}
	}
	satisfying := tree.satisfying()
	names = map[string]bool{}
	for _, d := range decls {
		names[d.name] = true
		name := d.obj.Name()
		if called[d.obj] || name == "main" || name == "init" || name == "_" ||
			d.obj.Pkg().Path() == tree.root && d.obj.Exported() || satisfying[d.obj] {
			continue
		}
		dead = append(dead, d)
	}
	sort.SliceStable(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return dead, names
}

// receiverName is the name of the type a method is declared on.
func receiverName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// satisfying lists the methods that satisfy an interface: for each
// named type of the tree, the methods of its pointer's method set,
// promoted ones included, that belong to an interface the pointer
// implements.
func (tree *sourceTree) satisfying() map[types.Object]bool {
	live := map[types.Object]bool{}
	for _, p := range tree.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj()
				for _, iface := range tree.ifaces[m.Name()] {
					if types.Implements(ptr, iface) {
						live[m] = true
						break
					}
				}
			}
		}
	}
	return live
}
