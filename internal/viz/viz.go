// Package viz defines the filter abstraction shared by the eight
// visualization algorithms of the study (the role VTK-m's filter layer
// plays in the paper) and the tetrahedral geometry kernels that the
// cell-centered filters build on: hexahedron→tetrahedra decomposition,
// marching-tetrahedra contouring, and half-space tetrahedron clipping.
//
// Every filter runs its hot loops under the par worker pool, and its
// package's cost.go prices each launch; the resulting profile is what
// the processor model consumes to derive the paper's power/performance
// metrics.
package viz

import (
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/render"
)

// Exec carries the execution context a filter runs in: the worker pool and
// what its launches have been charged, once each, on the calling
// goroutine.
type Exec struct {
	Pool *par.Pool
	prof ops.Profile
}

// NewExec creates an execution context over pool (nil selects the default
// pool).
func NewExec(pool *par.Pool) *Exec {
	if pool == nil {
		pool = par.Default()
	}
	return &Exec{Pool: pool}
}

// Charge adds a launch's priced profile to the context.
func (e *Exec) Charge(p ops.Profile) { e.prof.Add(p) }

// Drain returns what has been charged and resets the context.
func (e *Exec) Drain() (p ops.Profile) {
	p, e.prof = e.prof, ops.Profile{}
	return p
}

// Result is a filter's output: the operation profile of the run, the
// number of input elements processed (for the Moreland–Oldfield rate
// metric), and the produced data set.
type Result struct {
	Profile ops.Profile
	// DPP is the same run priced under the data-parallel-primitive
	// formulation (see Backend); it is zero for filters that have none.
	DPP      ops.Profile
	Elements int64
	// Exactly one of the following is set, depending on the filter.
	Tris      *mesh.TriMesh
	Cells     *mesh.UnstructuredMesh
	Lines     *mesh.LineSet
	Images    int               // count of images rendered (ray tracing, volume rendering)
	Grid      *mesh.UniformGrid // field-producing filters (gradient)
	Histogram []int64           // reduction filters (histogram)
}

// Filter is one visualization algorithm configured with its parameters.
type Filter interface {
	// Name returns the algorithm name as the paper spells it.
	Name() string
	// Run executes the filter over the grid.
	Run(g *mesh.UniformGrid, ex *Exec) (*Result, error)
}

// FrameFunc renders one view of a prepared image workload into im
// (allocating when im is nil or the wrong size), recording the work into
// ex. It is safe to call from several goroutines at once, each with its
// own im and ex: the structure behind it is immutable once prepared.
type FrameFunc func(im *render.Image, cam render.Camera, w, h int, ex *Exec) *render.Image

// RenderOrbit renders the images-long orbit database around b at w×h
// through frame, one pool task per frame. Each participating worker
// reuses one framebuffer for the frames it renders, and each frame
// charges an Exec of its own; those are drained into ex in frame order
// once the orbit is done, so ex is charged as a serial orbit charges it.
// A frame's pixel loop is a For nested in its task, so a worker left
// without a frame steals rows of the frames still rendering.
func RenderOrbit(ex *Exec, b mesh.Bounds, images, w, h int, frame FrameFunc) {
	frames := make([]Exec, images)
	ims := make([]*render.Image, ex.Pool.Workers())
	ex.Pool.ForEach(images, func(i, worker int) {
		cam, _ := render.OrbitView(b, i, images)
		frames[i].Pool = ex.Pool
		ims[worker] = frame(ims[worker], cam, w, h, &frames[i])
	})
	for i := range frames {
		ex.Charge(frames[i].Drain())
	}
}
