package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportedWithoutCallers lists the exported names under internal/ that
// are deliberately kept without a production caller. Keys are
// "package.Name" for functions and types and "package.Type.Name" for
// methods. At most ten entries, each with its reason; anything else
// that only a test names belongs in a _test.go file (the package's
// export_test.go when only its own tests need it).
var exportedWithoutCallers = map[string]string{
	// Kept on purpose.
	"dist.RayTrace":          "sort-last ray tracing, the sibling of dist.VolumeRender; kept by PR 18 for the compositor it shares",
	"dist.NewComm":           "the default-options fabric constructor, NewCommWith's documented short form",
	"vtkio.ReadTriMesh":      "reader half of the export round trip; a named fuzz target of the hardening item",
	"vtkio.ReadUnstructured": "reader half of the export round trip; a named fuzz target of the hardening item",
	"harness.Config.Phase3":  "the paper's Phase 3 as one call beside Phase1/Phase2; the Table III benchmark and harness tests run it",
	// Read by other packages' tests, so they cannot move into a _test.go file.
	"mesh.UniformGrid.PointFieldNames": "how a test asserts a filter left its input grid's fields alone (gradient)",
	"mesh.LineSet.AppendLine":          "line-set builder of the advection oracle (advect/reference_test.go) and the mesh tests",
	"render.Image.At":                  "bounds-checked pixel read the raytrace and volren tests inspect frames through",
	"render.Image.MeanLuminance":       "\"something visible was rendered\" check of the render, raytrace and volren tests",
	"viz.Tet.Volume":                   "volume-conservation oracle of the clip and isovolume tests",
}

// implicitMethods are called by the errors package (errors.Is, errors.As,
// errors.Unwrap), never named at a call site.
var implicitMethods = map[string]bool{"Is": true, "Unwrap": true}

// TestExportedSymbolsHaveProductionCallers is the tripwire that keeps
// test-only capability out of the production tree: every exported
// function, method and type declared in a non-test file under internal/
// must be named somewhere in non-test Go under internal/, cmd/ or bench/
// other than at its own declaration, and every package under internal/
// must be imported by such Go outside itself (a package's own code names
// its identifiers, so the first check alone cannot see a package nothing
// uses). It matches names, not types — enough to catch an oracle, a
// benchmark baseline or an unwired feature that ships only because a test
// calls it. A function or type is named by an unqualified identifier in
// its own package or by a pkg.Name selector through an import of it, so a
// method or a type that merely shares its name (Endpoint.Gather for
// dpp.Gather) does not keep it; a method is named by any other identifier
// spelled like it.
func TestExportedSymbolsHaveProductionCallers(t *testing.T) {
	type decl struct {
		key, name, pos string
		method         bool
	}
	var decls []decl
	uses := map[string]int{}      // identifier occurrences by bare name, declarations included
	qualified := map[string]int{} // "package.Name" occurrences as defined above, declarations included
	packages := map[string]bool{} // package directories under internal/
	imported := map[string]bool{} // package directories imported from outside themselves
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := file.Name.Name
			dir := filepath.ToSlash(filepath.Dir(path))
			if root == "internal" {
				packages[dir] = true
			}
			// Local import name -> package name (the last path element:
			// every package under internal/ is named after its directory).
			imports := map[string]string{}
			for _, im := range file.Imports {
				p := strings.Trim(im.Path.Value, `"`)
				if rel, ok := strings.CutPrefix(p, "repro/"); ok && rel != dir {
					imported[rel] = true
				}
				name := p[strings.LastIndex(p, "/")+1:]
				if im.Name != nil {
					imports[im.Name.Name] = name
				} else {
					imports[name] = name
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					uses[n.Sel.Name]++
					if x, ok := n.X.(*ast.Ident); ok {
						if imp, ok := imports[x.Name]; ok {
							qualified[imp+"."+n.Sel.Name]++
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					uses[n.Name]++
					qualified[pkg+"."+n.Name]++
				}
				return true
			}
			ast.Inspect(file, visit)
			if root != "internal" {
				return nil
			}
			add := func(key string, id *ast.Ident, method bool) {
				if id.IsExported() {
					decls = append(decls, decl{pkg + "." + key, id.Name, fset.Position(id.Pos()).String(), method})
				}
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name.Name, d.Name, false)
					} else if !implicitMethods[d.Name.Name] {
						add(receiverName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name, true)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							add(ts.Name.Name, ts.Name, false)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Occurrences that are declarations: per bare name for methods, per
	// "package.Name" for functions and types (build-tagged twins count twice).
	declared := map[string]int{}
	for _, d := range decls {
		declared[d.name]++
		if !d.method {
			declared[d.key]++
		}
	}
	if len(exportedWithoutCallers) > 10 {
		t.Errorf("allowlist has %d entries; the limit is ten", len(exportedWithoutCallers))
	}
	seen := map[string]bool{}
	for _, d := range decls { // WalkDir order: deterministic
		seen[d.key] = true
		_, allowed := exportedWithoutCallers[d.key]
		named := qualified[d.key] > declared[d.key]
		if d.method {
			named = uses[d.name] > declared[d.name]
		}
		switch {
		case named && allowed:
			t.Errorf("%s is allowlisted but non-test code names it now: drop the entry", d.key)
		case !named && !allowed:
			t.Errorf("exported but named by no non-test code: %s (%s)", d.key, d.pos)
		}
	}
	for key := range exportedWithoutCallers {
		if !seen[key] {
			t.Errorf("allowlist names %s, which is not declared under internal/", key)
		}
	}
	for dir := range packages {
		if !imported[dir] {
			t.Errorf("package %s is imported by no non-test code outside itself", dir)
		}
	}
}

// receiverName strips the pointer and type parameters off a receiver.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
