// Package study is the model half of the paper's campaign. Its input is
// measured cells, one per (algorithm, size) execution; as in Section IV,
// each is priced once on the study's processor under all nine power
// caps. Tables I–III, Figures 2–6, the Section VII claims, the
// cross-architecture comparison and the DPP-backend classification are
// functions of the priced cells. The harness measures; this package
// models and executes nothing.
package study

import (
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/ops"
)

// Processor is the study's processor model, the paper's Broadwell-EP
// node: the one every cell is priced on but in the arch comparison.
func Processor() cpu.Spec { return cpu.BroadwellEP() }

// Cell is one measured (algorithm, size) execution: everything the model
// reads of it, and nothing it derives.
type Cell struct {
	Name     string
	Size     int
	Elements int64
	// Profile and DPP are the execution's operation profile under the
	// traditional and the data-parallel-primitive formulation
	// (viz.Result); DPP is zero for filters that have none.
	Profile, DPP ops.Profile
	// WallSec is the measured wall clock of the execution (dataset
	// excluded), as opposed to the modeled TimeSec under a cap.
	WallSec float64
	// Stages is the execution's stage summary (its pipeline-track
	// spans' self time per stage) when it ran under a tracer.
	Stages []obs.StageStat
}

// Run is a measured cell and its pricing.
type Run struct {
	Cell
	Priced
}

// Price prices a measured cell on the study's processor under caps,
// caps[0] being the base. It reads only the cell, so a cell read back
// from a record prices exactly as the one measured.
func Price(c *Cell, caps []float64) *Run {
	return &Run{Cell: *c, Priced: price(Processor(), caps, c.Profile)}
}
