package budgets

import (
	"reflect"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// TestBuildByCapacityUnitMatchesBuild: with unit capacities and
// needed = minSize, a seed qualifies exactly when it has minSize − 1 live
// neighbors, so the capacity peel must reproduce cluster.Build — a
// cross-check on the one weighted peel against the one unit-weight peel,
// over empty, planted-cluster, uniform, and sparse regimes at several sizes
// and both graph representations.
func TestBuildByCapacityUnitMatchesBuild(t *testing.T) {
	type world struct {
		name      string
		z         []bitvec.Vector
		threshold int
		minSize   int
	}
	worlds := []world{{"empty", nil, 12, 1}}
	for _, n := range []int{1, 7, 64, 120, 257} {
		rng := xrand.New(uint64(n)*31 + 5)
		size := maxInt(n/4, 1)
		in := prefgen.DiameterClusters(rng, n, 300, size, 6)
		u := prefgen.Uniform(rng, n, 96)
		worlds = append(worlds,
			world{"planted", in.Truth, 12, size},
			world{"uniform", u.Truth, 48, 3},
			world{"sparse", u.Truth, 20, 2})
	}
	for _, w := range worlds {
		unit := make([]int, len(w.z))
		for i := range unit {
			unit[i] = 1
		}
		for _, rep := range []string{"dense", "sparse"} {
			g := cluster.IndexSpec{Graph: rep}.BuildGraph(nil, w.z, w.threshold, xrand.New(1))
			want := cluster.Build(g, w.minSize)
			got := buildByCapacity(g, unit, w.minSize)
			if !reflect.DeepEqual(got.Clusters, want.Clusters) || !reflect.DeepEqual(got.Of, want.Of) {
				t.Fatalf("%s n=%d %s: unit-capacity peel differs from cluster.Build", w.name, len(w.z), rep)
			}
		}
	}
}
