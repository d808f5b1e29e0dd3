package repro_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// accountingHomes are the packages that define and consume ops.Profile;
// everywhere else a profile is priced in a cost.go and only combined
// (Profile.Add) or passed along outside one.
var accountingHomes = map[string]bool{"repro/internal/ops": true, "repro/internal/cpu": true}

// TestAccountingLivesInCostFiles is the tripwire for that rule: outside
// internal/ops and internal/cpu, a non-test file other than a cost.go
// may not name an ops.Pattern constant, build an ops.Profile with
// counts, or write a Profile's counter. The loops count; one cost.go per
// package prices.
func TestAccountingLivesInCostFiles(t *testing.T) {
	bad, err := accountingOutsideCost(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestAccountingOutsideCostFindsPlanted runs the check on a small
// in-memory tree whose offenders are known.
func TestAccountingOutsideCostFindsPlanted(t *testing.T) {
	tree := fstest.MapFS{
		"internal/ops/ops.go": {Data: []byte(`package ops

type Pattern uint8

const (
	Stream Pattern = iota
	Random
)

type Profile struct {
	Flops     uint64
	LoadBytes [2]uint64
}

func (p *Profile) Add(q Profile) { p.Flops += q.Flops }
`)},
		"internal/cpu/cpu.go": {Data: []byte(`package cpu

import "repro/internal/ops"

func Streamed(p ops.Profile) uint64 { return p.LoadBytes[ops.Stream] }
`)},
		"internal/k/cost.go": {Data: []byte(`package k

import "repro/internal/ops"

func cost(n uint64) ops.Profile {
	p := ops.Profile{Flops: n}
	p.LoadBytes[ops.Stream] += n * 8
	return p
}
`)},
		"internal/k/k.go": {Data: []byte(`package k

import "repro/internal/ops"

var pat = ops.Random

func run(n uint64) ops.Profile {
	var total ops.Profile
	total.Add(cost(n))
	total.Add(ops.Profile{})
	total.Add(ops.Profile{Flops: 1})
	total.Flops++
	pp := &total
	pp.LoadBytes[1] = n
	return total
}
`)},
	}
	got, err := accountingOutsideCost(tree)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/k/k.go:5: names ops.Random",
		"internal/k/k.go:11: builds an ops.Profile",
		"internal/k/k.go:12: writes ops.Profile.Flops",
		"internal/k/k.go:14: writes ops.Profile.LoadBytes",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("accountingOutsideCost =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// accountingOutsideCost type-checks the non-test Go of fsys and reports,
// sorted, every place outside accountingHomes and cost.go files that
// names an ops.Pattern constant, writes a non-empty ops.Profile literal,
// or assigns to a field of an ops.Profile.
func accountingOutsideCost(fsys fs.FS) ([]string, error) {
	fset, files, err := parseTree(fsys)
	if err != nil {
		return nil, err
	}
	l := newLoader(fset, files)
	l.info.Types = map[ast.Expr]types.TypeAndValue{}
	isOps := func(t types.Type, name string) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "repro/internal/ops"
	}
	type finding struct {
		file string
		line int
		what string
	}
	var found []finding
	for pkgPath, pkgFiles := range files {
		if _, err := l.Import(pkgPath); err != nil {
			return nil, err
		}
		if accountingHomes[pkgPath] {
			continue
		}
		for _, f := range pkgFiles {
			name := fset.File(f.Pos()).Name()
			if path.Base(name) == "cost.go" {
				continue
			}
			report := func(n ast.Node, what string) {
				found = append(found, finding{name, fset.Position(n.Pos()).Line, what})
			}
			// written reports lhs when it is a Profile field, or an element
			// of one.
			written := func(lhs ast.Expr) {
				for {
					ix, ok := lhs.(*ast.IndexExpr)
					if !ok {
						break
					}
					lhs = ix.X
				}
				if sel, ok := lhs.(*ast.SelectorExpr); ok && isOps(l.info.Types[sel.X].Type, "Profile") {
					report(sel, "writes ops.Profile."+sel.Sel.Name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if c, ok := l.info.Uses[n].(*types.Const); ok && isOps(c.Type(), "Pattern") {
						report(n, "names ops."+n.Name)
					}
				case *ast.CompositeLit:
					if len(n.Elts) > 0 && isOps(l.info.Types[n].Type, "Profile") {
						report(n, "builds an ops.Profile")
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							written(lhs)
						}
					}
				case *ast.IncDecStmt:
					written(n.X)
				}
				return true
			})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].file != found[j].file {
			return found[i].file < found[j].file
		}
		return found[i].line < found[j].line
	})
	bad := make([]string, len(found))
	for i, f := range found {
		bad[i] = fmt.Sprintf("%s:%d: %s", f.file, f.line, f.what)
	}
	return bad, nil
}
