package harness

// The distributed-advection scaling sweep: ranks as a sweep dimension
// alongside size. Each (size, ranks) cell runs dist.Advect over the
// study data set, verifies the gathered streamlines against the
// cached single-rank oracle bit for bit, and records the Wang et al.
// (arXiv 2410.09710) breakdown of parallelize-over-data overheads —
// participation, ping-pong migrations, and idle time — for report.md.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/viz"
	"repro/internal/viz/advect"
)

// advectDistDeadline is the per-cell watchdog: a wedged fabric aborts
// with a typed error instead of hanging the sweep.
const advectDistDeadline = 5 * time.Minute

// advectOracleRun caches the single-rank shared-memory run of one
// size: the reference streamlines every distributed cell is checked
// against, plus its wall clock for the speedup column.
type advectOracleRun struct {
	Lines   *mesh.LineSet
	WallSec float64
}

// advectKey identifies one cached advection cell: the distributed run at
// a rank count, or (ranks 0) the single-rank oracle it is checked against.
type advectKey struct {
	size, ranks int
	adaptive    bool
}

// AdvectDistRun is the outcome of one (size, ranks) distributed
// advection cell.
type AdvectDistRun struct {
	Size  int
	Ranks int
	// Adaptive marks a BS23 cell; the study's cells are fixed-step RK4
	// like the paper's.
	Adaptive bool
	// Rounds is the BSP round count to termination; Ghost the halo
	// width in cell layers.
	Rounds, Ghost int
	// WallSec is the distributed run's wall clock; OracleWallSec the
	// cached single-rank shared-memory run's.
	WallSec       float64
	OracleWallSec float64
	// ParticleSteps is the gathered streamline point count (the same
	// quantity the advection benchmarks rate as particle-steps/s).
	ParticleSteps int
	// Identical reports that the gathered LineSet matched the
	// single-rank oracle bit for bit.
	Identical bool
	// Participation is total steps / (ranks x max per-rank steps):
	// 1.0 is perfect balance, 1/ranks is one rank doing all the work.
	Participation float64
	// Migrated and PingPong total the per-rank migration counters;
	// IdleNs totals time blocked on migration receives and the
	// termination collective.
	Migrated, PingPong int
	IdleNs             int64
	Stats              []dist.AdvectRankStats
}

// advectDistFilter builds the advection filter the distributed cells
// run — the same configuration as the sweep's shared-memory cell, in
// either integration mode.
func (c *Config) advectDistFilter(adaptive bool) *advect.Filter {
	return advect.New(advect.Options{
		Vector:       "velocity",
		NumParticles: c.Particles,
		NumSteps:     c.ParticleSteps,
		Adaptive:     adaptive,
	})
}

// advectCellName names a distributed cell in failure records and for
// Config.Inject.
func advectCellName(ranks int, adaptive bool) string {
	if adaptive {
		return fmt.Sprintf("Particle Advection (adaptive) ranks=%d", ranks)
	}
	return fmt.Sprintf("Particle Advection ranks=%d", ranks)
}

// linesBitEqual reports whether two streamline sets match bit for bit.
func linesBitEqual(a, b *mesh.LineSet) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Points) != len(b.Points) || len(a.Scalars) != len(b.Scalars) || len(a.Offsets) != len(b.Offsets) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] || a.Scalars[i] != b.Scalars[i] {
			return false
		}
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	return true
}

// advectOracleRun runs (and caches) the single-rank shared-memory
// advection at one size and mode.
func (c *Config) advectOracleRun(g *mesh.UniformGrid, f *advect.Filter, key advectKey) (*advectOracleRun, error) {
	key.ranks = 0
	if or, ok := c.advectOracle[key]; ok {
		return or, nil
	}
	t0 := time.Now()
	res, err := f.Run(g, viz.NewExec(c.Pool))
	if err != nil {
		return nil, fmt.Errorf("harness: advect oracle at %d^3: %w", key.size, err)
	}
	or := &advectOracleRun{Lines: res.Lines, WallSec: time.Since(t0).Seconds()}
	c.advectOracle[key] = or
	return or, nil
}

// AdvectDist executes (cached) one fixed-step distributed advection
// cell at the given size and rank count, checking the gathered
// streamlines against the single-rank oracle. A cell that fails is
// recorded in Failures.
func (c *Config) AdvectDist(size, ranks int) (*AdvectDistRun, error) {
	return c.advectDist(advectKey{size: size, ranks: ranks})
}

func (c *Config) advectDist(key advectKey) (*AdvectDistRun, error) {
	c.Defaults()
	if r, ok := c.advectRuns[key]; ok {
		return r, nil
	}
	run, err := c.advectDistAttempt(key)
	if err != nil {
		c.failures = append(c.failures, CellError{Name: advectCellName(key.ranks, key.adaptive), Size: key.size, Attempts: 1, Err: err})
		c.heartbeat("cell (Particle Advection, %d^3, ranks=%d) FAILED: %v", key.size, key.ranks, err)
		return nil, err
	}
	c.advectRuns[key] = run
	c.heartbeat("cell (Particle Advection, %d^3, ranks=%d) done in %.2fs%s", key.size, key.ranks, run.WallSec, c.droppedNote())
	return run, nil
}

// advectDistAttempt is one uncached execution of a distributed cell.
func (c *Config) advectDistAttempt(key advectKey) (*AdvectDistRun, error) {
	size, ranks := key.size, key.ranks
	if c.Inject != nil {
		if err := c.Inject(advectCellName(ranks, key.adaptive), size, 0); err != nil {
			return nil, fmt.Errorf("harness: distributed advect at %d^3 on %d ranks: %w", size, ranks, err)
		}
	}
	g, err := c.Dataset(size)
	if err != nil {
		return nil, err
	}
	f := c.advectDistFilter(key.adaptive)
	or, err := c.advectOracleRun(g, f, key)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := dist.Advect(g, f, ranks, dist.AdvectOptions{
		Fabric:   dist.Options{Tracer: c.Tracer},
		Deadline: advectDistDeadline,
	})
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("harness: distributed advect at %d^3 on %d ranks: %w", size, ranks, err)
	}
	run := &AdvectDistRun{
		Size: size, Ranks: ranks, Adaptive: key.adaptive,
		Rounds: res.Rounds, Ghost: res.Ghost,
		WallSec: wall, OracleWallSec: or.WallSec,
		ParticleSteps: res.Lines.TotalPoints(),
		Identical:     linesBitEqual(or.Lines, res.Lines),
		Stats:         res.Stats,
	}
	var total, max uint64
	for _, s := range res.Stats {
		total += s.Steps
		if s.Steps > max {
			max = s.Steps
		}
		run.Migrated += s.MigratedOut
		run.PingPong += s.PingPong
		run.IdleNs += s.IdleNs
	}
	if max > 0 {
		run.Participation = float64(total) / (float64(ranks) * float64(max))
	}
	return run, nil
}

// AdvectScaling sweeps the fixed-step distributed advection cell (the
// study's configuration) over every configured rank count at one size.
func (c *Config) AdvectScaling(size int) ([]*AdvectDistRun, error) {
	return c.AdvectScalingMode(size, false)
}

// AdvectScalingMode sweeps the distributed advection cell, fixed-step
// or adaptive, over every configured rank count at one size (rank
// counts exceeding the cell layers are skipped), returning the runs
// ascending by rank count. A failed cell is recorded and skipped; the
// error return is non-nil only when every cell failed.
func (c *Config) AdvectScalingMode(size int, adaptive bool) ([]*AdvectDistRun, error) {
	c.Defaults()
	var out []*AdvectDistRun
	var firstErr error
	for _, r := range c.Ranks {
		if r < 1 || r > size {
			c.log("skip advect-dist at %d^3: %d ranks exceed the cell layers", size, r)
			continue
		}
		run, err := c.advectDist(advectKey{size: size, ranks: r, adaptive: adaptive})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out = append(out, run)
	}
	if len(out) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// writeAdvectDist appends the distributed-advection scaling section to
// the report from the cached cells (quiet when the sweep did not run).
// Participation, ping-pong, and idle follow the overhead breakdown of
// Wang et al., "Maximum Livelihood: Understanding the Execution
// Behaviors of Parallel Particle Advection" (arXiv 2410.09710).
func (c *Config) writeAdvectDist(b *strings.Builder) {
	runs := make([]*AdvectDistRun, 0, len(c.advectRuns))
	for _, r := range c.advectRuns {
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Size != runs[j].Size {
			return runs[i].Size < runs[j].Size
		}
		if runs[i].Adaptive != runs[j].Adaptive {
			return runs[j].Adaptive
		}
		return runs[i].Ranks < runs[j].Ranks
	})
	b.WriteString("\n## Distributed advection (parallelize-over-data)\n\n")
	b.WriteString("Block-decomposed particle advection on the rank fabric: each rank owns\n")
	b.WriteString("a z-slab and advects its resident particles; boundary crossings migrate\n")
	b.WriteString("in batched SoA messages. Every cell's gathered streamlines are checked\n")
	b.WriteString("bit for bit against the single-rank run. Participation is total steps /\n")
	b.WriteString("(ranks x max per-rank steps); ping-pong counts migrants sent straight\n")
	b.WriteString("back to the rank they came from; idle is time blocked on migration\n")
	b.WriteString("receives and the termination collective, summed over ranks.\n\n")
	b.WriteString("| size | ranks | rounds | ghost | wall (s) | vs 1-rank | participation | migrated | ping-pong | idle (ms) | identical |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range runs {
		speed := "-"
		if r.WallSec > 0 {
			speed = fmt.Sprintf("%.2fx", r.OracleWallSec/r.WallSec)
		}
		ident := "yes"
		if !r.Identical {
			ident = "NO"
		}
		size := fmt.Sprintf("%d^3", r.Size)
		if r.Adaptive {
			size += " (adaptive)"
		}
		fmt.Fprintf(b, "| %s | %d | %d | %d | %.3f | %s | %.2f | %d | %d | %.1f | %s |\n",
			size, r.Ranks, r.Rounds, r.Ghost, r.WallSec, speed,
			r.Participation, r.Migrated, r.PingPong, float64(r.IdleNs)/1e6, ident)
	}
}
