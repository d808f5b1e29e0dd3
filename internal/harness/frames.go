package harness

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/viz"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/volren"
)

// Frames prepares one of the study's two image workloads over the energy
// field of g — the gathered, BVH-accelerated scene of "Ray Tracing", or
// the macrocell renderer of "Volume Rendering" under the study transfer
// function with the given transparency threshold — recording the build
// into ex, and returns its frame renderer. Figure 1, the cinema verb and
// the daemon's structure cache all prepare their frames here.
func Frames(g *mesh.UniformGrid, name string, transparent float64, ex *viz.Exec) (viz.FrameFunc, error) {
	switch name {
	case "Ray Tracing":
		scene, err := raytrace.GatherScene(g, "energy", ex)
		if err != nil {
			return nil, err
		}
		return scene.RenderInto, nil
	case "Volume Rendering":
		field, err := g.EnsurePointField("energy")
		if err != nil {
			return nil, err
		}
		tf := volren.TransferFor(field)
		tf.Transparent = transparent
		return volren.NewRenderer(g, field, tf, ex).Prepare().RenderImageInto, nil
	}
	return nil, fmt.Errorf("harness: %q is not an image workload: want %q or %q", name, "Ray Tracing", "Volume Rendering")
}
