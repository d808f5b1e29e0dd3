package study

import (
	"fmt"
	"slices"
	"strings"
)

// Claim is one executable statement from the paper's findings (Section
// VII), evaluated against the study's cells.
type Claim struct {
	ID        string
	Statement string
	// Applicable is false when the configured study is too small to test
	// the claim (e.g. the cache-overflow claims need a 192³+ data set).
	Applicable bool
	Pass       bool
	Detail     string
}

// The size claims need a real size span; the falling one needs a
// largest size past the LLC-overflow point.
func sizeSpanOK(sizes []int) bool { return len(sizes) >= 2 && sizes[len(sizes)-1] >= 4*sizes[0] }
func overflowOK(sizes []int) bool { return len(sizes) >= 2 && sizes[len(sizes)-1] >= 192 }

// sizeClaims are claims 7–9, the IPC-versus-size categories of Figs.
// 4–6: each judges one algorithm's base-cap IPC at every size (ascending).
var sizeClaims = []struct {
	id, statement, alg, skip string
	applicable               func(sizes []int) bool
	judge                    func(ipc []float64, sizes []int) (bool, string)
}{
	{"size-rising", "Slice-class IPC rises with data-set size (Fig. 4)", "Slice", "size span too small", sizeSpanOK,
		func(v []float64, sizes []int) (bool, string) {
			n := len(v)
			return v[n-1] > v[0], fmt.Sprintf("slice IPC %.2f at %d^3 -> %.2f at %d^3", v[0], sizes[0], v[n-1], sizes[n-1])
		}},
	{"size-falling", "Volume rendering IPC falls once the volume overflows the LLC (Fig. 5)", "Volume Rendering",
		"largest size below the LLC-overflow point", overflowOK,
		func(v []float64, _ []int) (bool, string) {
			n := len(v)
			return v[n-1] < v[n-2], fmt.Sprintf("volume rendering IPC %.3f -> %.3f at the overflow step", v[n-2], v[n-1])
		}},
	{"size-flat", "Particle advection IPC is size-invariant (Fig. 6)", "Particle Advection", "size span too small", sizeSpanOK,
		func(v []float64, _ []int) (bool, string) {
			lo, hi := slices.Min(v), slices.Max(v)
			return (hi-lo)/hi < 0.05, fmt.Sprintf("particle advection IPC spread %.1f%%", 100*(hi-lo)/hi)
		}},
}

// SizeClaimAlgorithms names the algorithms whose runs at every size
// Claims reads, given the study's sizes ascending: those of the size
// claims the sizes can test, in claim order.
func SizeClaimAlgorithms(sizes []int) []string {
	var names []string
	for _, sc := range sizeClaims {
		if sc.applicable(sizes) {
			names = append(names, sc.alg)
		}
	}
	return names
}

// Claims evaluates the paper's headline findings, one result per claim;
// callers treat any applicable failing claim as a reproduction
// regression. phase is the full Phase 2 set (every algorithm at the
// phase size), bySize maps each algorithm SizeClaimAlgorithms names to
// its runs by size, sizes are the study's sizes ascending, and
// renderScale says the rendering workloads ran at a paper-like scale:
// the class claims are inapplicable without it.
func Claims(phase []*Run, bySize map[string]map[int]*Run, sizes []int, renderScale bool) []Claim {
	byName := make(map[string]*Run, len(phase))
	for _, r := range phase {
		byName[r.Name] = r
	}
	demand := func(n string) float64 { return byName[n].Demand.PowerWatts }
	slow := func(n string) float64 { return byName[n].SlowT }
	ipc := func(n string) float64 { return byName[n].ByCap[0].IPC }
	miss := func(n string) float64 { return byName[n].ByCap[0].LLCMissRate }

	sensitive := []string{"Volume Rendering", "Particle Advection"}
	opportunity := []string{"Contour", "Spherical Clip", "Isovolume", "Threshold", "Slice", "Ray Tracing"}

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
			renderScale, pass, worst)
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
			renderScale, pass, detail)
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
			renderScale, pass,
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
			renderScale, pass,
			fmt.Sprintf("VR %.3f vs isovolume %.3f", miss("Volume Rendering"), miss("Isovolume")))
	}
	// Claim 6 — the Section V-A tradeoff: Tratio never exceeds Pratio.
	{
		pass := true
		detail := ""
		for _, r := range phase {
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
	for _, sc := range sizeClaims {
		applicable, pass, detail := sc.applicable(sizes), false, sc.skip
		if applicable {
			ipc := make([]float64, len(sizes))
			for i, size := range sizes {
				ipc[i] = bySize[sc.alg][size].ByCap[0].IPC
			}
			pass, detail = sc.judge(ipc, sizes)
		}
		add(sc.id, sc.statement, applicable, pass, detail)
	}
	return claims
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
