package search

// SetTestEpoch makes every Scratch start its searches and probes from
// epoch e (0 restores normal counting) and returns the previous setting.
func SetTestEpoch(e uint32) uint32 {
	old := testEpoch
	testEpoch = e
	return old
}

// RandomGraph draws a random labeled graph with n vertices, e edges and
// labels "a", "b", …
var RandomGraph = randomGraph
