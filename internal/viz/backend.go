package viz

import "fmt"

// Backend selects which of two formulations of a geometry kernel the
// study prices: the traditional fused loop or the data-parallel-primitive
// (count/flag → scan → emit) formulation VTK-m uses. Bethel et al.
// (arXiv 2010.02361) compare exactly these two formulations of the
// kernels this repository reproduces; pricing both through the power
// sweep asks whether the formulation changes an algorithm's
// power-opportunity vs power-sensitive class. The kernel runs the same
// way under either: the backend picks the cost function that turns its
// counts into the launch's profile.
type Backend int

const (
	// Traditional is priced as one launch that counts each chunk of
	// cells and fills every chunk at its offset, with no per-element
	// intermediate arrays.
	Traditional Backend = iota
	// DPP is priced as the data-parallel-primitive formulation: count →
	// scan → emit for contour, flag → compact → count → emit for
	// threshold, with their extra launches and index arrays.
	DPP
)

// String returns the backend's flag spelling ("trad" or "dpp").
func (b Backend) String() string {
	if b == DPP {
		return "dpp"
	}
	return "trad"
}

// ParseBackend parses the -backend flag values "trad" and "dpp".
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "trad", "traditional":
		return Traditional, nil
	case "dpp":
		return DPP, nil
	}
	return Traditional, fmt.Errorf("unknown backend %q (want trad or dpp)", s)
}

// BackendProvider is implemented by filters priced under both formulations.
// The harness uses it to key cached runs and report rows per backend.
type BackendProvider interface {
	Backend() Backend
}
