package harness

import (
	"fmt"
	"strings"
)

// Claim is one executable statement from the paper's findings (Section
// VII), evaluated against a fresh run of the study.
type Claim struct {
	ID        string
	Statement string
	// Applicable is false when the configured study is too small to test
	// the claim (e.g. the cache-overflow claims need a 192³+ data set).
	Applicable bool
	Pass       bool
	Detail     string
}

// CheckClaims runs the study at the configured scale and evaluates the
// paper's headline findings. It returns one result per claim; callers
// treat any applicable failing claim as a reproduction regression.
func (c *Config) CheckClaims() ([]Claim, error) {
	c.Defaults()
	runs, err := c.Phase2()
	if err != nil {
		return nil, err
	}
	// The claims compare algorithms against each other, so a partial
	// Phase 2 (some cells failed and were skipped) cannot be judged.
	if len(runs) != len(c.Filters()) {
		return nil, fmt.Errorf("harness: claims need the full Phase 2 set, only %d of %d algorithms ran\n%s",
			len(runs), len(c.Filters()), FailureReport(c.Failures()))
	}
	byName := make(map[string]*AlgoRun, len(runs))
	for _, r := range runs {
		byName[r.Name] = r
	}
	demand := func(n string) float64 { return byName[n].Demand.PowerWatts }
	slow := func(n string) float64 { return byName[n].SlowT }
	ipc := func(n string) float64 { return byName[n].ByCap[0].IPC }
	miss := func(n string) float64 { return byName[n].ByCap[0].LLCMissRate }

	sensitive := []string{"Volume Rendering", "Particle Advection"}
	opportunity := []string{"Contour", "Spherical Clip", "Isovolume", "Threshold", "Slice", "Ray Tracing"}

	// The class claims only hold when the rendering workloads run at a
	// paper-like scale (the 50-image database); a -quick demonstration
	// with tiny images makes volume rendering launch-overhead-bound and
	// meaningless to classify.
	renderScaleOK := c.Images*c.ImageSize*c.ImageSize >= 300_000 && c.PhaseSize >= 48

	var claims []Claim
	add := func(id, statement string, applicable, pass bool, detail string) {
		if !applicable {
			pass = false
		}
		claims = append(claims, Claim{ID: id, Statement: statement, Applicable: applicable, Pass: pass, Detail: detail})
	}

	// Claim 1 — Table I: contour tolerates deep caps.
	{
		s := slow("Contour")
		pass := s == 0 || s <= 50
		add("contour-flat",
			"Contour sees no >=10% slowdown until a severe cap (<=50 W)",
			true, pass, fmt.Sprintf("first slowdown at %.0f W", s))
	}
	// Claim 2 — the class split by demand power.
	{
		pass := true
		var worst string
		for _, hot := range sensitive {
			for _, cold := range opportunity {
				if demand(hot) <= demand(cold) {
					pass = false
					worst = fmt.Sprintf("%s (%.1f W) <= %s (%.1f W)", hot, demand(hot), cold, demand(cold))
				}
			}
		}
		add("class-demand",
			"Volume rendering and particle advection demand more power than every opportunity algorithm",
			renderScaleOK, pass, worst)
	}
	// Claim 3 — the class split by throttle point.
	{
		pass := true
		detail := ""
		for _, hot := range sensitive {
			if slow(hot) < 70 {
				pass = false
				detail = fmt.Sprintf("%s first slowdown at %.0f W", hot, slow(hot))
			}
		}
		for _, cold := range opportunity {
			if s := slow(cold); s > 60 {
				pass = false
				detail = fmt.Sprintf("%s first slowdown at %.0f W", cold, s)
			}
		}
		add("class-throttle",
			"Power-sensitive algorithms slow >=10% by 70-80 W; opportunity algorithms hold to <=60 W",
			renderScaleOK, pass, detail)
	}
	// Claim 4 — the IPC divide.
	{
		pass := ipc("Volume Rendering") > 1 && ipc("Particle Advection") > 1 && ipc("Threshold") < 1
		for _, hot := range sensitive {
			for _, other := range opportunity {
				if ipc(hot) <= ipc(other) {
					pass = false
				}
			}
		}
		add("ipc-divide",
			"Sensitive algorithms sit above IPC 1 and above every opportunity algorithm; threshold below 1",
			renderScaleOK, pass,
			fmt.Sprintf("VR %.2f, PA %.2f, threshold %.2f", ipc("Volume Rendering"), ipc("Particle Advection"), ipc("Threshold")))
	}
	// Claim 5 — the miss-rate inversion.
	{
		pass := miss("Volume Rendering") < miss("Particle Advection")
		for _, cold := range opportunity {
			if miss("Volume Rendering") >= miss(cold) {
				pass = false
			}
		}
		pass = pass && miss("Isovolume") > miss("Volume Rendering")
		add("miss-inversion",
			"Volume rendering has the lowest LLC miss rate; the opportunity class the highest",
			renderScaleOK, pass,
			fmt.Sprintf("VR %.3f vs isovolume %.3f", miss("Volume Rendering"), miss("Isovolume")))
	}
	// Claim 6 — the Section V-A tradeoff: Tratio never exceeds Pratio.
	{
		pass := true
		detail := ""
		for _, r := range runs {
			for i, rt := range r.Ratios {
				if rt.Tratio > rt.Pratio+1e-9 {
					pass = false
					detail = fmt.Sprintf("%s at %.0f W: Tratio %.2f > Pratio %.2f", r.Name, r.ByCap[i].CapWatts, rt.Tratio, rt.Pratio)
				}
			}
		}
		add("tradeoff",
			"For every algorithm and cap, the slowdown never exceeds the power reduction (Tratio <= Pratio)",
			true, pass, detail)
	}
	// Claims 7-9 — the IPC-versus-size categories (need a real size span).
	sizes := c.SortedSizes()
	sizeSpanOK := len(sizes) >= 2 && sizes[len(sizes)-1] >= 4*sizes[0]
	overflowOK := sizes[len(sizes)-1] >= 192
	{
		applicable := sizeSpanOK
		pass, detail := false, "size span too small"
		if applicable {
			bySize, err := c.RunsBySize("Slice")
			if err != nil {
				return nil, err
			}
			lo := bySize[sizes[0]].ByCap[0].IPC
			hi := bySize[sizes[len(sizes)-1]].ByCap[0].IPC
			pass = hi > lo
			detail = fmt.Sprintf("slice IPC %.2f at %d^3 -> %.2f at %d^3", lo, sizes[0], hi, sizes[len(sizes)-1])
		}
		add("size-rising", "Slice-class IPC rises with data-set size (Fig. 4)", applicable, pass, detail)
	}
	{
		applicable := overflowOK
		pass, detail := false, "largest size below the LLC-overflow point"
		if applicable {
			bySize, err := c.RunsBySize("Volume Rendering")
			if err != nil {
				return nil, err
			}
			mid := bySize[sizes[len(sizes)-2]].ByCap[0].IPC
			top := bySize[sizes[len(sizes)-1]].ByCap[0].IPC
			pass = top < mid
			detail = fmt.Sprintf("volume rendering IPC %.3f -> %.3f at the overflow step", mid, top)
		}
		add("size-falling", "Volume rendering IPC falls once the volume overflows the LLC (Fig. 5)", applicable, pass, detail)
	}
	{
		applicable := sizeSpanOK
		pass, detail := false, "size span too small"
		if applicable {
			bySize, err := c.RunsBySize("Particle Advection")
			if err != nil {
				return nil, err
			}
			lo, hi := 1e300, 0.0
			for _, s := range sizes {
				v := bySize[s].ByCap[0].IPC
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			pass = (hi-lo)/hi < 0.05
			detail = fmt.Sprintf("particle advection IPC spread %.1f%%", 100*(hi-lo)/hi)
		}
		add("size-flat", "Particle advection IPC is size-invariant (Fig. 6)", applicable, pass, detail)
	}
	return claims, nil
}

// FormatClaims renders claim results, one line each.
func FormatClaims(claims []Claim) string {
	var b strings.Builder
	for _, cl := range claims {
		status := "PASS"
		switch {
		case !cl.Applicable:
			status = "SKIP"
		case !cl.Pass:
			status = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-15s %s", status, cl.ID, cl.Statement)
		if cl.Detail != "" {
			fmt.Fprintf(&b, " — %s", cl.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ClaimsAllPass reports whether every applicable claim passed.
func ClaimsAllPass(claims []Claim) bool {
	for _, cl := range claims {
		if cl.Applicable && !cl.Pass {
			return false
		}
	}
	return true
}
