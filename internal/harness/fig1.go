package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/mesh"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/raytrace"
)

// Fig1Names lists the renderings of Figure 1 in the paper's order.
var Fig1Names = []string{
	"Contour", "Threshold", "Spherical Clip", "Isovolume",
	"Slice", "Particle Advection", "Ray Tracing", "Volume Rendering",
}

// fig1Start is the order the panels start in, as indices into Fig1Names:
// the four surface panels largest first (clip, contour, isovolume, slice),
// then the small ones, so the longest panel never starts last.
var fig1Start = []int{2, 0, 3, 4, 5, 6, 1, 7}

// RenderFig1 regenerates the paper's Figure 1: one rendering per
// algorithm of the energy field of the CloverLeaf-like data set, written
// as PNG files into outDir. It returns the written file paths.
//
// The eight panels are independent, so they render concurrently as tasks
// on c.Pool, at most Workers() at once, each with its own Exec. They only
// read the shared grid: the one field they would otherwise add to it is
// recentered before they start. The files are written afterwards in
// Fig1Names order, and the first failing panel in that order is the error.
func (c *Config) RenderFig1(size, imgSize int, outDir string) ([]string, error) {
	c.Defaults()
	if imgSize <= 0 {
		imgSize = 256
	}
	start := time.Now()
	g, err := c.Dataset(size)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if _, err := g.EnsurePointField("energy"); err != nil {
		return nil, err
	}
	filters := make([]viz.Filter, len(Fig1Names))
	for i, name := range Fig1Names {
		if filters[i], err = c.FilterByName(name); err != nil {
			return nil, err
		}
	}
	cam := render.OrbitCamera(g.Bounds(), 0.7, 0.5, 1.6)

	images := make([]*render.Image, len(Fig1Names))
	errs := make([]error, len(Fig1Names))
	c.Pool.ForEach(len(fig1Start), func(k, _ int) {
		i := fig1Start[k]
		images[i], errs[i] = renderOne(g, filters[i], Fig1Names[i], cam, imgSize, viz.NewExec(c.Pool))
	})

	var paths []string
	for i, name := range Fig1Names {
		if errs[i] != nil {
			return nil, fmt.Errorf("fig1 %s: %w", name, errs[i])
		}
		path := filepath.Join(outDir, fileSlug(name)+".png")
		if err := writePNG(path, images[i]); err != nil {
			return nil, err
		}
		paths = append(paths, path)
		c.log("fig1: wrote %s", path)
	}
	if c.Heartbeat != nil {
		// Figure 1 is not a sweep cell, so it stays out of the cell count.
		fmt.Fprintf(c.Heartbeat, "fig1 (%d panels, %d^3, %dx%d) done in %.2fs\n",
			len(Fig1Names), size, imgSize, imgSize, time.Since(start).Seconds())
	}
	return paths, nil
}

// writePNG encodes im into a new file at path.
func writePNG(path string, im *render.Image) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := im.WritePNG(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fileSlug(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// renderOne produces the Figure 1 image for one algorithm: surface
// outputs are ray-traced, streamlines are rasterized, and the image
// workloads render themselves. It reads g and writes nothing shared.
func renderOne(g *mesh.UniformGrid, f viz.Filter, name string, cam render.Camera, imgSize int, ex *viz.Exec) (*render.Image, error) {
	switch name {
	case "Ray Tracing", "Volume Rendering":
		frame, err := Frames(g, name, 0, ex)
		if err != nil {
			return nil, err
		}
		return frame(nil, cam, imgSize, imgSize, ex), nil
	}

	res, err := f.Run(g, ex)
	if err != nil {
		return nil, err
	}
	switch {
	case res.Tris != nil:
		return raytrace.NewSceneWith(res.Tris, ex.Pool).RenderInto(nil, cam, imgSize, imgSize, ex), nil
	case res.Cells != nil:
		surf := mesh.ExternalFaces(mesh.WeldPointsPool(res.Cells, 1e-9, ex.Pool))
		return raytrace.NewSceneWith(surf, ex.Pool).RenderInto(nil, cam, imgSize, imgSize, ex), nil
	case res.Lines != nil:
		im := render.NewImage(imgSize, imgSize)
		im.Fill(raytrace.Background)
		fr := cam.Frame(imgSize, imgSize)
		lo, hi := mesh.FieldRange(res.Lines.Scalars)
		norm := render.Normalizer{Lo: lo, Hi: hi}
		for li := 0; li < res.Lines.NumLines(); li++ {
			s, e := res.Lines.Line(li)
			// Each point's color is mapped once and shared by the two
			// segments that meet there.
			var prev render.Color
			for i := s; i < e; i++ {
				col := render.CoolWarm(norm.Norm(res.Lines.Scalars[i]))
				if i > s {
					im.DrawLineFrame(&fr, res.Lines.Points[i-1], res.Lines.Points[i], prev, col)
				}
				prev = col
			}
		}
		return im, nil
	}
	return nil, fmt.Errorf("filter %s produced no renderable output", name)
}
