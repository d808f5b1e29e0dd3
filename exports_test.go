package repro_test

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	pathpkg "path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// exportedWithoutCallers lists the names under internal/ that are
// deliberately kept without a production caller. Keys are "package.Name"
// for functions and types and "package.Type.Name" for methods. At most
// ten entries, each with its reason; anything else that only a test
// names belongs in a _test.go file (the package's export_test.go when
// only its own tests need it).
var exportedWithoutCallers = map[string]string{
	// Read by other packages' tests, so they cannot move into a _test.go file.
	"mesh.UniformGrid.FieldNames":    "how a test asserts a data set holds the arrays it should, and a filter left them alone (harness, gradient)",
	"mesh.LineSet.AppendLine":        "line-set builder of the advection oracle (advect/reference_test.go) and the mesh tests",
	"mesh.LineSet.Validate":          "structural check the advection tests run on every streamline set they assemble",
	"mesh.TriMesh.Validate":          "structural check the contour and slice tests run on their surfaces",
	"mesh.UnstructuredMesh.Validate": "structural check the clip, isovolume and threshold tests run on their cells",
	"render.Image.At":                "bounds-checked pixel read the raytrace and volren tests inspect frames through",
	"render.Image.MeanLuminance":     "\"something visible was rendered\" check of the render, raytrace and volren tests",
	"render.TransferFunction.Eval":   "the transfer function by definition: the volren reference renderer and the LUT tests evaluate it",
	"viz.Tet.Volume":                 "volume-conservation oracle of the clip and isovolume tests",
}

// TestExportedSymbolsHaveProductionCallers is the tripwire that keeps
// test-only capability out of the production tree. It type-checks the
// non-test Go under internal/, cmd/ and bench/ and requires that every
// package-level function and type and every method declared under
// internal/ is used by that code outside its own declaration (see
// unusedNames for what counts as a use), and that every package under
// internal/ is imported by such Go outside itself.
func TestExportedSymbolsHaveProductionCallers(t *testing.T) {
	a, err := analyze(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	if len(exportedWithoutCallers) > 10 {
		t.Errorf("allowlist has %d entries; the limit is ten", len(exportedWithoutCallers))
	}
	for _, u := range a.unused {
		if _, allowed := exportedWithoutCallers[u.key]; !allowed {
			t.Errorf("used by no non-test code: %s (%s)", u.key, u.pos)
		}
	}
	for key := range exportedWithoutCallers {
		switch {
		case !a.declared[key]:
			t.Errorf("allowlist names %s, which is not declared under internal/", key)
		case !a.isUnused(key):
			t.Errorf("%s is allowlisted but non-test code uses it now: drop the entry", key)
		}
	}
	for _, path := range a.orphans {
		t.Errorf("package %s is imported by no non-test code outside itself", strings.TrimPrefix(path, "repro/"))
	}
}

// TestUnusedNamesFindsPlantedDeadCode runs the tripwire's analysis on a
// small in-memory tree whose dead names are known.
func TestUnusedNamesFindsPlantedDeadCode(t *testing.T) {
	tree := fstest.MapFS{
		"internal/shape/shape.go": {Data: []byte(`package shape

// Shape's Area is called through the interface only, so Square.Area
// is used although nothing names it.
type Shape interface{ Area() float64 }

type Square struct{ S float64 }

func (q Square) Area() float64 { return q.S * q.S }

func Total(shapes []Shape) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Camera.Ray is hidden by the live Frame.Ray: dead.
type Camera struct{}

func (Camera) Ray() int { return 1 }

type Frame struct{ Cam Camera }

func (Frame) Ray() int { return 2 }

// String satisfies fmt.Stringer, which fmt calls without naming it.
func (Frame) String() string { return "frame" }

// helper is called by the package's test only: dead.
func helper() int { return 3 }

// fact only calls itself: dead.
func fact(n int) int {
	if n == 0 {
		return 1
	}
	return n * fact(n-1)
}
`)},
		"internal/shape/shape_test.go": {Data: []byte(`package shape

import "testing"

func TestHelper(t *testing.T) { _ = helper() + Camera{}.Ray() + fact(3) }
`)},
		"internal/orphan/orphan.go": {Data: []byte("package orphan\n\nfunc Used() int { return used() }\n\nfunc used() int { return 0 }\n")},
		"cmd/app/main.go": {Data: []byte(`package main

import (
	"fmt"

	"repro/internal/shape"
)

func main() {
	fmt.Println(shape.Total([]shape.Shape{shape.Square{S: 2}}), shape.Frame{}.Ray(), shape.Frame{})
}
`)},
	}
	a, err := analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range a.unused {
		got = append(got, u.key)
	}
	want := []string{"orphan.Used", "shape.Camera.Ray", "shape.helper", "shape.fact"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unused = %v, want %v", got, want)
	}
	if strings.Join(a.orphans, " ") != "repro/internal/orphan" {
		t.Errorf("orphans = %v, want [repro/internal/orphan]", a.orphans)
	}
}

// analyze parses the non-test Go of fsys (parseTree) and runs
// unusedNames on it with the packages under internal/ checked.
func analyze(fsys fs.FS) (*analysis, error) {
	fset, files, err := parseTree(fsys)
	if err != nil {
		return nil, err
	}
	return unusedNames(fset, files, func(path string) bool { return strings.HasPrefix(path, "repro/internal/") })
}

// parseTree parses the non-test Go under internal/, cmd/ and bench/ of
// fsys, as module repro, keyed by import path.
func parseTree(fsys fs.FS) (*token.FileSet, map[string][]*ast.File, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	for _, root := range []string{"internal", "cmd", "bench"} {
		err := fs.WalkDir(fsys, root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := fs.ReadFile(fsys, path)
			if err != nil {
				return err
			}
			file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := "repro/" + pathpkg.Dir(path)
			files[dir] = append(files[dir], file)
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, err
		}
	}
	return fset, files, nil
}

// implicitInterfaces are the unnamed interfaces errors.Is, errors.As and
// errors.Unwrap assert: a method satisfying one is called without being
// named, like one satisfying an exported standard-library interface.
const implicitInterfaces = `package implicit

type (
	Iser            interface{ Is(error) bool }
	Aser            interface{ As(any) bool }
	Unwrapper       interface{ Unwrap() error }
	MultiUnwrapper  interface{ Unwrap() []error }
)
`

type unused struct{ key, pos string }

type analysis struct {
	declared map[string]bool // every key declared in a checked package
	unused   []unused        // in declaration order
	orphans  []string        // checked packages no other package imports
}

func (a *analysis) isUnused(key string) bool {
	for _, u := range a.unused {
		if u.key == key {
			return true
		}
	}
	return false
}

// unusedNames type-checks files (import path -> non-test files), each
// package once and its local imports first, with the standard library
// read from export data. It reports every package-level function and
// type and every method declared in a package for which checked is true
// that no use in files resolves to, counting a use only outside the
// name's own declaration (a method's receiver does not use its type, a
// recursive call does not use its function). A method also counts as
// used when its type implements an interface that has a method of that
// name and either some file calls that interface method or the
// interface is the standard library's (error, fmt.Stringer,
// http.Handler, ..., and the ones errors.Is/As/Unwrap assert), because
// then it is called without being named. Keys are "package.Name" and
// "package.Type.Name".
func unusedNames(fset *token.FileSet, files map[string][]*ast.File, checked func(path string) bool) (*analysis, error) {
	l := newLoader(fset, files)
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	implicitFile, err := parser.ParseFile(fset, "implicit.go", implicitInterfaces, 0)
	if err != nil {
		return nil, err
	}
	implicit, err := (&types.Config{}).Check("implicit", fset, []*ast.File{implicitFile}, nil)
	if err != nil {
		return nil, err
	}

	// The declarations to check, with the span whose uses do not count.
	type decl struct {
		key      string
		obj      types.Object
		pos, end token.Pos
	}
	var decls []decl
	receivers := map[token.Pos]bool{} // receiver type identifiers: not uses of their type
	a := &analysis{declared: map[string]bool{}}
	imported := map[string]bool{}
	for _, path := range paths {
		pkg := l.pkgs[path]
		for _, imp := range pkg.Imports() {
			imported[imp.Path()] = true
		}
		for _, file := range files[path] {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id.Pos()] = true
							}
							return true
						})
					}
					if !checked(path) || d.Name.Name == "init" || d.Name.Name == "main" || d.Name.Name == "_" {
						continue
					}
					fn := l.info.Defs[d.Name].(*types.Func)
					key := pkg.Name() + "." + d.Name.Name
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						key = pkg.Name() + "." + namedOf(recv.Type()).Obj().Name() + "." + d.Name.Name
					}
					decls = append(decls, decl{key, fn, d.Pos(), d.End()})
				case *ast.GenDecl:
					if !checked(path) {
						continue
					}
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name != "_" {
							decls = append(decls, decl{pkg.Name() + "." + ts.Name.Name, l.info.Defs[ts.Name], ts.Pos(), ts.End()})
						}
					}
				}
			}
		}
	}

	// Every object some identifier resolves to, with the positions it is used at.
	usedAt := map[types.Object][]token.Pos{}
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if !receivers[id.Pos()] {
			usedAt[obj] = append(usedAt[obj], id.Pos())
		}
	}
	// The interfaces through which a method may be called without being
	// named: every interface with a method some file calls, and every
	// interface of the standard library.
	implicitly := map[string][]*types.Interface{} // method name -> interfaces declaring it
	addInterface := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			implicitly[name] = append(implicitly[name], iface)
		}
	}
	for obj := range usedAt {
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
				implicitly[fn.Name()] = append(implicitly[fn.Name()], iface)
			}
		}
	}
	stdSeen := map[*types.Package]bool{}
	var addStd func(p *types.Package)
	addStd = func(p *types.Package) {
		if stdSeen[p] {
			return
		}
		stdSeen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					addInterface(iface)
				}
			}
		}
		for _, imp := range p.Imports() {
			addStd(imp)
		}
	}
	for _, path := range paths {
		for _, imp := range l.pkgs[path].Imports() {
			if _, local := files[imp.Path()]; !local {
				addStd(imp)
			}
		}
	}
	addStd(implicit)
	addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for _, path := range paths {
		if checked(path) && !imported[path] {
			a.orphans = append(a.orphans, path)
		}
	}
	for _, d := range decls {
		a.declared[d.key] = true
		used := false
		for _, pos := range usedAt[d.obj] {
			if pos < d.pos || pos >= d.end {
				used = true
				break
			}
		}
		if fn, ok := d.obj.(*types.Func); ok && !used {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				named := namedOf(recv.Type())
				for _, iface := range implicitly[fn.Name()] {
					if named.TypeParams() == nil && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
						used = true
						break
					}
				}
			}
		}
		if !used {
			a.unused = append(a.unused, unused{d.key, fset.Position(d.pos).String()})
		}
	}
	return a, nil
}

// loader type-checks the packages of files on demand, each once, and
// reads every other import from the compiler's export data.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func newLoader(fset *token.FileSet, files map[string][]*ast.File) *loader {
	return &loader{
		fset:  fset,
		files: files,
		pkgs:  map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "gc", nil),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	l.pkgs[path] = pkg
	return pkg, err
}

// namedOf strips the pointer off a receiver type.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
