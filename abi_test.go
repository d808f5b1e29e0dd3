package repro_test

import (
	"fmt"
	"go/types"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// scalarHotPaths are the calls made once per field sample or per ray:
// the samplers' cores and the world→index transform under them, the two
// advection steppers, the camera's per-pixel ray and the ray–box slab
// test. Keys are import paths under the module; names are "Func" or
// "Type.Method" as in exports_test.go. Go's register ABI passes an array
// of more than one element (mesh.Vec3, render.Color), or a struct holding
// one, through memory, so none of these may take or return such a value.
var scalarHotPaths = map[string][]string{
	"internal/mesh": {
		"samplerGeom.index", "samplerGeom.Cell", "samplerGeom.CellLayer",
		"ScalarSampler.At", "VectorSampler.At", "RaySlab", "SafeRecip",
	},
	"internal/viz/advect": {"RK4Step", "BS23Step"},
	"internal/render":     {"Frame.Ray"},
}

// TestHotPathsPassScalars is the tripwire for that rule: it type-checks
// the packages above and fails on any listed function that passes a
// value through memory, or that no longer exists under its listed name.
func TestHotPathsPassScalars(t *testing.T) {
	bad, err := memoryPassed(os.DirFS("."), scalarHotPaths)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestMemoryPassedFindsPlantedArrays runs the check on a small in-memory
// tree whose offenders are known.
func TestMemoryPassedFindsPlantedArrays(t *testing.T) {
	tree := fstest.MapFS{
		"internal/geo/geo.go": {Data: []byte(`package geo

type Vec3 [3]float64

type One [1]float64

type Box struct{ Lo, Hi Vec3 }

type probe struct{}

func Scalar(x, y, z float64) (float64, bool) { return x + y + z, true }

func Takes(p Vec3) float64 { return p[0] }

func Single(o One) One { return o }

func (probe) Returns() (v Vec3) { return v }

func (*probe) Boxed(b Box) {}

func (*probe) Pointer(b *Box, vs []Vec3) {}
`)},
	}
	names := map[string][]string{"internal/geo": {
		"Scalar", "Takes", "Single", "probe.Returns", "probe.Boxed", "probe.Pointer", "Gone", "probe.Gone",
	}}
	got, err := memoryPassed(tree, names)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/geo.Gone: not declared",
		"internal/geo.Takes: parameter p geo.Vec3 passes through memory",
		"internal/geo.probe.Boxed: parameter b geo.Box passes through memory",
		"internal/geo.probe.Gone: not declared",
		"internal/geo.probe.Returns: result v geo.Vec3 passes through memory",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("memoryPassed =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// memoryPassed type-checks the packages named in names from the
// non-test Go of fsys and reports, sorted, every parameter or result of
// a named function whose type the register ABI passes through memory,
// and every name that is not declared.
func memoryPassed(fsys fs.FS, names map[string][]string) ([]string, error) {
	fset, files, err := parseTree(fsys)
	if err != nil {
		return nil, err
	}
	l := newLoader(fset, files)
	var bad []string
	for path, funcs := range names {
		pkg, err := l.Import("repro/" + path)
		if err != nil {
			return nil, err
		}
		for _, name := range funcs {
			fn := lookupFunc(pkg, name)
			if fn == nil {
				bad = append(bad, fmt.Sprintf("%s.%s: not declared", path, name))
				continue
			}
			sig := fn.Type().(*types.Signature)
			for _, side := range []struct {
				what  string
				tuple *types.Tuple
			}{{"parameter", sig.Params()}, {"result", sig.Results()}} {
				for i := 0; i < side.tuple.Len(); i++ {
					if v := side.tuple.At(i); inMemory(v.Type()) {
						bad = append(bad, fmt.Sprintf("%s.%s: %s %s %s passes through memory",
							path, name, side.what, v.Name(), types.TypeString(v.Type(), (*types.Package).Name)))
					}
				}
			}
		}
	}
	sort.Strings(bad)
	return bad, nil
}

// lookupFunc resolves "Func" or "Type.Method" (promoted methods
// included) in pkg, or returns nil.
func lookupFunc(pkg *types.Package, name string) *types.Func {
	typ, method, isMethod := strings.Cut(name, ".")
	if !isMethod {
		fn, _ := pkg.Scope().Lookup(name).(*types.Func)
		return fn
	}
	tn, ok := pkg.Scope().Lookup(typ).(*types.TypeName)
	if !ok {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, method)
	fn, _ := obj.(*types.Func)
	return fn
}

// inMemory reports whether the register ABI assigns a value of type t
// to the stack whatever registers are free: an array of more than one
// element, or an array or struct holding one.
func inMemory(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Array:
		return u.Len() > 1 || (u.Len() == 1 && inMemory(u.Elem()))
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if inMemory(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}
