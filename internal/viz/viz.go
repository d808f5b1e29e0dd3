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
