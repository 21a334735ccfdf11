package cache

// ReplayGraph hands FuzzReplay's graph families to the package's external
// tests.
var ReplayGraph = replayGraph
