package harness

import (
	"fmt"
	"os"
	"path/filepath"

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

// RenderFig1 regenerates the paper's Figure 1: one rendering per
// algorithm of the energy field of the CloverLeaf-like data set, written
// as PNG files into outDir. It returns the written file paths.
func (c *Config) RenderFig1(size, imgSize int, outDir string) ([]string, error) {
	c.Defaults()
	if imgSize <= 0 {
		imgSize = 256
	}
	g, err := c.Dataset(size)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	cam := render.OrbitCamera(g.Bounds(), 0.7, 0.5, 1.6)
	ex := viz.NewExec(c.Pool)

	var paths []string
	for _, name := range Fig1Names {
		f, err := c.FilterByName(name)
		if err != nil {
			return nil, err
		}
		im, err := c.renderOne(g, f, name, cam, imgSize, ex)
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", name, err)
		}
		path := filepath.Join(outDir, fileSlug(name)+".png")
		out, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := im.WritePNG(out); err != nil {
			out.Close()
			return nil, err
		}
		if err := out.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
		c.log("fig1: wrote %s", path)
	}
	return paths, nil
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
// workloads render themselves.
func (c *Config) renderOne(g *mesh.UniformGrid, f viz.Filter, name string, cam render.Camera, imgSize int, ex *viz.Exec) (*render.Image, error) {
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
		lo, hi := mesh.FieldRange(res.Lines.Scalars)
		norm := render.Normalizer{Lo: lo, Hi: hi}
		for li := 0; li < res.Lines.NumLines(); li++ {
			s, e := res.Lines.Line(li)
			for i := s; i+1 < e; i++ {
				ca := render.CoolWarm(norm.Norm(res.Lines.Scalars[i]))
				cb := render.CoolWarm(norm.Norm(res.Lines.Scalars[i+1]))
				im.DrawLine(cam, res.Lines.Points[i], res.Lines.Points[i+1], ca, cb)
			}
		}
		return im, nil
	}
	return nil, fmt.Errorf("filter %s produced no renderable output", name)
}
