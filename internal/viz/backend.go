package viz

// Backend names one of two formulations of a geometry kernel the study
// prices: the traditional fused loop or the data-parallel-primitive
// (count/flag → scan → emit) formulation VTK-m uses. Bethel et al.
// (arXiv 2010.02361) compare exactly these two formulations of the
// kernels this repository reproduces; pricing both through the power
// sweep asks whether the formulation changes an algorithm's
// power-opportunity vs power-sensitive class. The kernel runs once
// either way: contour and threshold price the counts of that one run
// under both cost functions, as Result.Profile and Result.DPP.
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

// String returns the backend's short spelling ("trad" or "dpp").
func (b Backend) String() string {
	if b == DPP {
		return "dpp"
	}
	return "trad"
}
