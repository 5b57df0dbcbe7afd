package dist

// Test-only exports for the tests of package dist_test, which drive trees
// through core.Pipeline (core imports dist, so they cannot live in dist).
var (
	Leaf          = leaf
	Branch        = branch
	Sharded       = sharded
	BothLanesBusy = bothLanesBusy
)
