package harness

import "repro/internal/study"

// The model half of the campaign lives in internal/study. These names
// forward to it for the benchmark driver under bench/, which calls them
// through this package; every other caller imports study directly.
type (
	AlgoRun = study.Run
	Series  = study.Series
	Claim   = study.Claim
)

var (
	Table1, Table2, Table3, DemandTable, EnergyTable = study.Table1, study.Table2, study.Table3, study.DemandTable, study.EnergyTable
	Fig2a, Fig2b, Fig2c, Fig3, FigIPCBySize          = study.Fig2a, study.Fig2b, study.Fig2c, study.Fig3, study.FigIPCBySize
	WriteSVGFigure, SeriesCSV, BackendTable          = study.WriteSVGFigure, study.SeriesCSV, study.BackendTable
	FormatClaims, ClaimsAllPass                      = study.FormatClaims, study.ClaimsAllPass
)
