package dag

// ClassifyCost exposes classify — the verdicts plus the number of edges the
// searches examined — to the external tests, which need internal/graphs and
// so cannot live in this package.
var ClassifyCost = classify
