package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
)

// datasetPinArg is the argument that makes TestDatasetHashesChild print
// instead of skip.
const datasetPinArg = "dataset-hashes"

// TestDatasetHashesAcrossPools pins the arrays the kernels read — cell
// energy, point energy and point velocity — of tinyConfig's 16^3 hydro
// data set and of its 32^3 resampling (testdata/datasets.txt, in
// cells64.txt's row format), and holds them on pools of 1, 2 and 4
// workers. Sim.Grid, CellToPoint and ResampleCube take no pool: they run
// on the process's default pool, which is sized once from GOMAXPROCS, so
// each worker count is a child test process started with that
// GOMAXPROCS, whose hydro pool has as many workers.
func TestDatasetHashesAcrossPools(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "datasets.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDatasetHashesChild$", "-test.count=1", datasetPinArg)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%d workers: %v\n%s", workers, err, out)
		}
		var got strings.Builder
		for _, line := range strings.SplitAfter(string(out), "\n") {
			if strings.HasPrefix(line, "dataset ") {
				got.WriteString(line)
			}
		}
		if got.String() != string(want) {
			t.Errorf("%d workers: data set hashes differ from testdata/datasets.txt:\n--- got\n%s--- want\n%s",
				workers, got.String(), want)
		}
	}
}

// TestDatasetHashesChild is TestDatasetHashesAcrossPools's child: it
// builds tinyConfig's 16^3 and 32^3 data sets on a pool as wide as
// GOMAXPROCS and prints their hash rows.
func TestDatasetHashesChild(t *testing.T) {
	if flag.Arg(0) != datasetPinArg {
		t.Skip("run by TestDatasetHashesAcrossPools")
	}
	c := tinyConfig()
	c.Pool = par.NewPool(runtime.GOMAXPROCS(0))
	defer c.Pool.Close()
	for _, size := range []int{16, 32} {
		g, err := c.Dataset(size)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Print(datasetHashes(size, g))
	}
}

// datasetHashes lists a SHA-256 of each array the kernels read from a
// data set: cell energy, point energy and point velocity (components in
// order), one "dataset size kind name sha256 hex" row each.
func datasetHashes(size int, g *mesh.UniformGrid) string {
	vel := g.PointVector("velocity")
	flat := make([]float64, 0, 3*len(vel))
	for _, v := range vel {
		flat = append(flat, v[:]...)
	}
	return hashRow(size, "cell", "energy", g.CellField("energy")) +
		hashRow(size, "point", "energy", g.PointField("energy")) +
		hashRow(size, "point", "velocity", flat)
}

// hashRow is one datasetHashes row: the SHA-256 of v's float64 bits,
// little-endian.
func hashRow(size int, kind, name string, v []float64) string {
	h := sha256.New()
	for _, x := range v {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
	return fmt.Sprintf("dataset %d %-6s %-9s sha256 %x\n", size, kind, name, h.Sum(nil))
}
