package harness

// The distributed-advection scaling sweep: ranks as a sweep dimension
// alongside size. Each (size, ranks) cell runs dist.Advect over the
// study data set, verifies the gathered streamlines against the
// cached single-rank oracle bit for bit, and records the Wang et al.
// (arXiv 2410.09710) breakdown of parallelize-over-data overheads —
// participation, ping-pong migrations, and idle time — for report.md.

import (
	"fmt"
	"slices"
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

// advectKey identifies one distributed advection cell; oracleKey the
// single-rank oracle a size and mode's cells are checked against.
type advectKey struct {
	size, ranks int
	adaptive    bool
}

type oracleKey struct {
	size     int
	adaptive bool
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

// advectName names the advection cells in failure records and to
// Config.Inject, "(adaptive)" marking a BS23 cell.
func advectName(adaptive bool) string {
	if adaptive {
		return "Particle Advection (adaptive)"
	}
	return "Particle Advection"
}

// linesBitEqual reports whether two streamline sets match bit for bit.
func linesBitEqual(a, b *mesh.LineSet) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Points, b.Points) && slices.Equal(a.Scalars, b.Scalars) && slices.Equal(a.Offsets, b.Offsets)
}

// advectOracle runs (cached) the single-rank shared-memory advection at
// key's size and mode.
func (c *Config) advectOracle(key advectKey) (*advectOracleRun, error) {
	alg := advectName(key.adaptive)
	return runCell(c, cellID{
		key:   oracleKey{key.size, key.adaptive},
		name:  alg + " oracle",
		size:  key.size,
		label: fmt.Sprintf("%s oracle, %d^3, ranks=1", alg, key.size),
	}, func() (*advectOracleRun, error) {
		g, err := c.Dataset(key.size)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := c.advectDistFilter(key.adaptive).Run(g, viz.NewExec(c.Pool))
		if err != nil {
			return nil, err
		}
		return &advectOracleRun{Lines: res.Lines, WallSec: time.Since(t0).Seconds()}, nil
	})
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
	or, err := c.advectOracle(key)
	if err != nil {
		return nil, err
	}
	alg := advectName(key.adaptive)
	return runCell(c, cellID{
		key:   key,
		name:  fmt.Sprintf("%s ranks=%d", alg, key.ranks),
		size:  key.size,
		label: fmt.Sprintf("%s, %d^3, ranks=%d", alg, key.size, key.ranks),
	}, func() (*AdvectDistRun, error) {
		g, err := c.Dataset(key.size)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := dist.Advect(g, c.advectDistFilter(key.adaptive), key.ranks, dist.AdvectOptions{
			Fabric:   dist.Options{Tracer: c.Tracer},
			Deadline: advectDistDeadline,
		})
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		run := &AdvectDistRun{
			Size: key.size, Ranks: key.ranks, Adaptive: key.adaptive,
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
			run.Participation = float64(total) / (float64(key.ranks) * float64(max))
		}
		return run, nil
	})
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
	var fit []int
	for _, r := range c.Ranks {
		if r < 1 || r > size {
			c.log("skip advect-dist at %d^3: %d ranks exceed the cell layers", size, r)
			continue
		}
		fit = append(fit, r)
	}
	return partial(len(fit), func(i int) (*AdvectDistRun, error) {
		return c.advectDist(advectKey{size: size, ranks: fit[i], adaptive: adaptive})
	})
}

// writeAdvectDist appends the distributed-advection scaling section to
// the report from the cached cells (quiet when the sweep did not run).
// Participation, ping-pong, and idle follow the overhead breakdown of
// Wang et al., "Maximum Livelihood: Understanding the Execution
// Behaviors of Parallel Particle Advection" (arXiv 2410.09710).
func (c *Config) writeAdvectDist(b *strings.Builder) {
	runs := cached[*AdvectDistRun](c)
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
