package dist

// Distributed parallelize-over-data particle advection on the rank
// fabric: the grid is block-decomposed into z-slabs with a ghost halo
// sized from the field's peak z-velocity, each rank drives its resident
// particles through advect.Advance — the function advect.Run drives —
// over a mesh.VectorSampler built on its block, whose arithmetic is
// bit-identical to the whole-grid sampler, and particles whose cell
// layer leaves the owned range migrate to the owning rank in batched,
// length-prefixed SoA messages. Rank-local streamline segments carry
// (pid, seq) like the shared-memory arenas, so the root decodes the
// gathered arenas and hands them to advect.Assemble — the assembly
// advect.Run uses — for a LineSet bit-identical to single-rank
// advect.Run regardless of rank count or migration interleaving. This
// file holds no step loop, no cost constant and no assembly rule. See
// DESIGN.md §11.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/telemetry"
	"repro/internal/viz/advect"
)

// Round-indexed tag bases keep every migration batch and termination
// count bound to its BSP round: a dropped message surfaces as a tag
// mismatch or a watchdog abort, never as silent misdelivery.
const (
	advectTagMigrate = 1 << 20
	advectTagCount   = 2 << 20
	advectTagTotal   = 3 << 20
	advectTagSegs    = 4 << 20
)

// advectWireFields is the per-particle field count of a migration
// message: px, py, pz, cell, pid, seq, steps, h, arc, prev.
const advectWireFields = 10

// AdvectOptions configures a distributed advection run.
type AdvectOptions struct {
	// Fabric tunes the rank fabric (buffering, send timeouts, fault
	// injection, tracing). BufferCap must be >= 0: the per-round
	// all-to-all migration exchange sends before receiving, which a
	// rendezvous fabric cannot complete.
	Fabric Options
	// Deadline, when positive, arms a watchdog that cancels the fabric
	// after the given wall time, converting any stall — e.g. a dropped
	// migration message leaving a peer blocked — into a typed
	// *AbortError instead of a hang.
	Deadline time.Duration
	// Seeds overrides the filter's deterministic seed stream (tests
	// inject crafted and out-of-domain seeds through this).
	Seeds []mesh.Vec3
}

// AdvectRankStats is one rank's counters from a distributed advection
// run: the participation/ping-pong/overhead breakdown of the
// parallelize-over-data cost model.
type AdvectRankStats struct {
	Rank int
	// Seeded is the number of live particles initially owned.
	Seeded int
	// Steps is the number of accepted integration steps executed here.
	Steps uint64
	// Retired is the number of particles that terminated on this rank.
	Retired int
	// MigratedOut and MigratedIn count particles crossing block
	// boundaries in each direction.
	MigratedOut int
	MigratedIn  int
	// PingPong counts emigrants sent back to the rank they most
	// recently arrived from — the oscillation overhead of
	// parallelize-over-data advection.
	PingPong int
	// IdleNs is wall time blocked waiting on migration receives and
	// the termination collective.
	IdleNs int64
}

// AdvectResult is the output of a distributed advection run.
type AdvectResult struct {
	// Lines is the gathered streamline set, bit-identical to
	// single-rank advect.Run on the same grid and options.
	Lines *mesh.LineSet
	// Stats holds one entry per rank.
	Stats []AdvectRankStats
	// Rounds is the BSP round count to global termination.
	Rounds int
	// Ghost is the halo width (cell layers) each block carried.
	Ghost int
	// Profile is the merged per-rank operation profile.
	Profile ops.Profile
}

// advectRankState is one rank's working state: the resident particles,
// the streamline arena, and the cost tally. Batched reuse keeps the
// steady-state loop free of per-particle allocation.
type advectRankState struct {
	ps   []advect.Particle
	prev []int32 // rank last migrated from, -1 initially
	// next is this round's outcome per resident: advect.Resident,
	// advect.Retired, or the destination rank.
	next []int32

	trail advect.Trail
	tally advect.Tally
}

func (st *advectRankState) add(p advect.Particle, prev int32) {
	st.ps = append(st.ps, p)
	st.prev = append(st.prev, prev)
}

// encodeInto appends the emigrants idx as one length-prefixed SoA
// message into buf (reused across rounds): [count, px×c, py×c, pz×c,
// cell×c, pid×c, seq×c, steps×c, h×c, arc×c, prev×c]. Integer fields
// ride in float64 exactly (cell ids and counters stay far below 2^53).
func (st *advectRankState) encodeInto(buf []float64, idx []int, rank int32) []float64 {
	c := len(idx)
	buf = append(buf[:0], make([]float64, 1+advectWireFields*c)...)
	buf[0] = float64(c)
	for j, i := range idx {
		p := &st.ps[i]
		for k, v := range [advectWireFields]float64{
			p.Pos[0], p.Pos[1], p.Pos[2], float64(p.Cell), float64(p.PID),
			float64(p.Seq), float64(p.Steps), p.H, p.Arc, float64(rank),
		} {
			buf[1+k*c+j] = v
		}
	}
	return buf
}

// ingest decodes one migration batch into the resident arrays.
func (st *advectRankState) ingest(data []float64, src int) (int, error) {
	if len(data) < 1 {
		return 0, fmt.Errorf("dist: advect migration batch from rank %d is empty", src)
	}
	c := int(data[0])
	if c < 0 || c > len(data) || len(data) != 1+advectWireFields*c {
		return 0, fmt.Errorf("dist: advect migration batch from rank %d has %d floats, want %d for %d particles",
			src, len(data), 1+advectWireFields*c, c)
	}
	for j := 0; j < c; j++ {
		f := func(k int) float64 { return data[1+k*c+j] }
		st.add(advect.Particle{
			Pos: mesh.Vec3{f(0), f(1), f(2)}, Cell: int32(f(3)), PID: int32(f(4)),
			Seq: int32(f(5)), Steps: int32(f(6)), H: f(7), Arc: f(8),
		}, int32(f(9)))
	}
	return c, nil
}

// advectShared is the read-mostly state every rank body closes over,
// plus the per-rank output slots (each goroutine writes only its own
// index; the root alone writes lines/rounds).
type advectShared struct {
	f       *advect.Filter
	g       *mesh.UniformGrid
	blocks  []mesh.Block
	owners  []int32
	nSeeds  int
	perRank [][]advect.Particle
	// seedTally is the charge for out-of-domain seeds; the root carries
	// it into the merged profile.
	seedTally advect.Tally
	ghost     int
	maxRounds int
	tracer    *telemetry.Tracer

	stats []AdvectRankStats
	recs  []ops.Recorder

	lines  *mesh.LineSet
	rounds int
}

// Advect runs the particle-advection filter parallelized over data on
// nRanks fabric ranks and gathers a LineSet bit-identical to
// single-rank f.Run(g, ...) — same points, speeds, and offsets for
// both fixed-step RK4 and adaptive BS23 modes, at any rank count and
// under any migration interleaving (including fault-injected delays).
func Advect(g *mesh.UniformGrid, f *advect.Filter, nRanks int, opts AdvectOptions) (*AdvectResult, error) {
	fo := f.Options()
	field := g.PointVector(fo.Vector)
	if field == nil {
		return nil, fmt.Errorf("dist: grid has no point vector field %q", fo.Vector)
	}
	cd := g.CellDims()
	if nRanks < 1 || nRanks > cd[2] {
		return nil, fmt.Errorf("dist: cannot advect on %d ranks over %d cell layers", nRanks, cd[2])
	}
	if opts.Fabric.BufferCap < 0 {
		return nil, fmt.Errorf("dist: advect needs a buffered fabric (BufferCap >= 0): the all-to-all migration exchange sends before receiving")
	}

	// Ghost halo sized so every integration-stage probe of a particle
	// standing in an owned layer resolves locally: probes reach at most
	// max|v_z|·h past the position (step coefficients sum to one), with
	// the adaptive controller's hMax as the worst-case step.
	vzMax := 0.0
	for _, v := range field {
		if a := math.Abs(v[2]); a > vzMax {
			vzMax = a
		}
	}
	hEff := fo.StepLength
	if fo.Adaptive {
		_, hEff = advect.AdaptiveStepBounds(fo.StepLength)
	}
	ghost := int(vzMax*hEff/g.Spacing[2]) + 2

	blocks, err := mesh.BlockDecompose(g, nRanks, ghost)
	if err != nil {
		return nil, err
	}
	owners := make([]int32, cd[2])
	for r := range blocks {
		for k := blocks[r].K0; k < blocks[r].K1; k++ {
			owners[k] = int32(r)
		}
	}

	starts := opts.Seeds
	if starts == nil {
		starts = advect.SeedPoints(g.Bounds(), fo.NumParticles)
	}
	// Live seeds (the same out-of-domain predicate as Run and its test
	// oracle, advect's reference_test.go) go to the rank owning their
	// cell layer by the samplers' exact index arithmetic.
	live, seedTally := f.Advancer(g).Seed(starts, nil)
	gs, err := mesh.NewVectorSampler(g, fo.Vector)
	if err != nil {
		return nil, err
	}
	perRank := make([][]advect.Particle, nRanks)
	for _, p := range live {
		layer, _ := gs.CellLayer(p.Pos)
		perRank[owners[layer]] = append(perRank[owners[layer]], p)
	}

	// The liveness backstop on the BSP round count: every active particle
	// accepts at least one step per round (the adaptive hMin clamp
	// guarantees acceptance), so a clean run terminates well inside it.
	maxRounds := fo.NumSteps + 8

	comm, err := NewCommWith(nRanks, opts.Fabric)
	if err != nil {
		return nil, err
	}
	if opts.Deadline > 0 {
		watchdog := time.AfterFunc(opts.Deadline, func() {
			comm.Cancel(fmt.Errorf("advect deadline %v exceeded", opts.Deadline))
		})
		defer watchdog.Stop()
	}

	sh := &advectShared{
		f: f, g: g, blocks: blocks, owners: owners, nSeeds: len(starts),
		perRank: perRank, seedTally: seedTally, ghost: ghost,
		maxRounds: maxRounds, tracer: opts.Fabric.Tracer,
		stats: make([]AdvectRankStats, nRanks),
		recs:  make([]ops.Recorder, nRanks),
	}
	for r := 0; r < nRanks; r++ {
		sh.tracer.SetTrackName(telemetry.WorkerTrack(r), fmt.Sprintf("rank %d", r))
	}

	if err := comm.Run(sh.rankBody); err != nil {
		return nil, err
	}
	return &AdvectResult{
		Lines:   sh.lines,
		Stats:   sh.stats,
		Rounds:  sh.rounds,
		Ghost:   sh.ghost,
		Profile: ops.Merge(sh.recs),
	}, nil
}

// rankBody is one rank's advection loop: BSP rounds of
// advance-burst / all-to-all migration exchange / termination count,
// then the final (pid, seq) segment gather on the root.
func (sh *advectShared) rankBody(ep *Endpoint) error {
	rank, size := ep.Rank(), ep.Size()
	rank32 := int32(rank)
	track := telemetry.WorkerTrack(rank)
	stats := &sh.stats[rank]
	stats.Rank = rank

	s, err := mesh.NewBlockVectorSampler(sh.blocks[rank], sh.f.Options().Vector)
	if err != nil {
		return err
	}
	// The region test: a particle whose cell layer another rank owns
	// migrates there.
	a := sh.f.Advancer(sh.g)
	a.Leave = func(p mesh.Vec3) int32 {
		if layer, ok := s.CellLayer(p); ok && sh.owners[layer] != rank32 {
			return sh.owners[layer]
		}
		return advect.Resident
	}

	st := &advectRankState{
		ps:   make([]advect.Particle, 0, sh.nSeeds),
		prev: make([]int32, 0, sh.nSeeds),
		next: make([]int32, 0, sh.nSeeds),
	}
	for _, p := range sh.perRank[rank] {
		st.add(p, -1)
	}
	stats.Seeded = len(st.ps)
	if rank == 0 {
		st.tally = sh.seedTally
	}

	sendBufs := make([][]float64, size)
	outIdx := make([][]int, size)
	var idle time.Duration

	terminated := false
	rounds := 0
	for round := 0; round < sh.maxRounds; round++ {
		rounds = round + 1
		if rank == 0 {
			sh.recs[0].Launch()
		}

		t0 := sh.tracer.Begin()
		st.next = st.next[:0]
		for i := range st.ps {
			st.next = append(st.next, advect.Advance(a, s, &st.ps[i], &st.trail, &st.tally))
		}
		if s.Escaped() {
			return fmt.Errorf("dist: advect probe escaped rank %d block storage: ghost halo %d too thin for the step length", rank, sh.ghost)
		}
		sh.tracer.End(track, "advect.advance", t0)

		// Bucket emigrants (indices reference pre-compaction slots, so
		// encode before compacting), then drop dead and departed.
		t1 := sh.tracer.Begin()
		for d := 0; d < size; d++ {
			outIdx[d] = outIdx[d][:0]
		}
		for i, dst := range st.next {
			if dst == advect.Retired {
				stats.Retired++
			} else if dst >= 0 {
				outIdx[dst] = append(outIdx[dst], i)
				stats.MigratedOut++
				if st.prev[i] == dst {
					stats.PingPong++
				}
			}
		}
		for dst := 0; dst < size; dst++ {
			if dst == rank {
				continue
			}
			sendBufs[dst] = st.encodeInto(sendBufs[dst], outIdx[dst], rank32)
			if err := ep.Send(dst, advectTagMigrate+round, sendBufs[dst]); err != nil {
				return err
			}
		}
		w := 0
		for i, dst := range st.next {
			if dst == advect.Resident {
				st.ps[w], st.prev[w] = st.ps[i], st.prev[i]
				w++
			}
		}
		st.ps, st.prev = st.ps[:w], st.prev[:w]
		for src := 0; src < size; src++ {
			if src == rank {
				continue
			}
			tw := time.Now()
			data, err := ep.Recv(src, advectTagMigrate+round)
			idle += time.Since(tw)
			if err != nil {
				return err
			}
			c, err := st.ingest(data, src)
			if err != nil {
				return err
			}
			stats.MigratedIn += c
		}

		// Termination: allreduce of active counts as a Gather to the
		// root plus a total broadcast, both tagged with the round.
		tw := time.Now()
		parts, err := ep.Gather(0, advectTagCount+round, []float64{float64(len(st.ps))})
		if err != nil {
			idle += time.Since(tw)
			return err
		}
		var total float64
		if rank == 0 {
			for _, p := range parts {
				total += p[0]
			}
			for dst := 1; dst < size; dst++ {
				if err := ep.Send(dst, advectTagTotal+round, []float64{total}); err != nil {
					idle += time.Since(tw)
					return err
				}
			}
		} else {
			d, err := ep.Recv(0, advectTagTotal+round)
			if err != nil {
				idle += time.Since(tw)
				return err
			}
			total = d[0]
		}
		idle += time.Since(tw)
		sh.tracer.End(track, "advect.exchange", t1)
		if total == 0 {
			terminated = true
			break
		}
	}
	if !terminated {
		return fmt.Errorf("dist: advect did not terminate within %d rounds (rank %d still holds %d active particles)", sh.maxRounds, rank, len(st.ps))
	}

	stats.Steps = st.tally.Steps
	stats.IdleNs = int64(idle)
	st.tally.Record(&sh.recs[rank])
	sh.recs[rank].WorkingSet(st.tally.WorkingSet(sh.blocks[rank].Grid.NumPoints(), st.tally.Steps))

	// Final gather: every rank ships its arena as
	// [nSegs, (pid, seq, n, n×(x, y, z, spd))...]; the root decodes the
	// messages back into arenas and assembles them as advect.Run does.
	tr := &st.trail
	segBuf := make([]float64, 0, 1+len(tr.Segs)*3+len(tr.Pts)*4)
	segBuf = append(segBuf, float64(len(tr.Segs)))
	for _, sg := range tr.Segs {
		segBuf = append(segBuf, float64(sg.PID), float64(sg.Seq), float64(sg.N))
		for j := sg.Off; j < sg.Off+sg.N; j++ {
			p := tr.Pts[j]
			segBuf = append(segBuf, p[0], p[1], p[2], tr.Spd[j])
		}
	}
	parts, err := ep.Gather(0, advectTagSegs, segBuf)
	if err != nil {
		return err
	}
	if rank != 0 {
		return nil
	}
	trails, err := decodeTrails(parts, sh.nSeeds)
	if err != nil {
		return err
	}
	sh.lines, _ = advect.Assemble(trails, nil)
	sh.rounds = rounds
	return nil
}

// decodeTrails turns the gathered per-rank segment messages back into
// the arenas they were encoded from, one Trail per rank. The messages
// crossed the fabric, so every count is checked against the buffer
// before it is used as an index: a malformed message is an error
// naming the rank, never a panic.
func decodeTrails(parts [][]float64, nSeeds int) ([]advect.Trail, error) {
	trails := make([]advect.Trail, len(parts))
	for r, data := range parts {
		if len(data) < 1 {
			return nil, fmt.Errorf("dist: advect segment gather from rank %d is empty", r)
		}
		tr := &trails[r]
		tr.Pts = make([]mesh.Vec3, 0, len(data)/4)
		tr.Spd = make([]float64, 0, len(data)/4)
		nSegs := int(data[0])
		pos := 1
		for k := 0; k < nSegs; k++ {
			if pos+3 > len(data) {
				return nil, fmt.Errorf("dist: advect segment gather from rank %d truncated", r)
			}
			pid, seq, n := int32(data[pos]), int32(data[pos+1]), int(data[pos+2])
			pos += 3
			if n < 0 || n > (len(data)-pos)/4 || pid < 0 || int(pid) >= nSeeds {
				return nil, fmt.Errorf("dist: advect segment gather from rank %d malformed", r)
			}
			tr.Segs = append(tr.Segs, advect.Segment{PID: pid, Seq: seq, Off: int32(len(tr.Pts)), N: int32(n)})
			for end := pos + 4*n; pos < end; pos += 4 {
				tr.Pts = append(tr.Pts, mesh.Vec3{data[pos], data[pos+1], data[pos+2]})
				tr.Spd = append(tr.Spd, data[pos+3])
			}
		}
	}
	return trails, nil
}
