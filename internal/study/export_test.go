package study

// ArchFractions exposes the cross-architecture cap fractions to the
// external tests, which price cells the harness measures.
var ArchFractions = archFractions
