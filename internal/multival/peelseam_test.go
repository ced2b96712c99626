package multival

import (
	"reflect"
	"testing"

	"collabscore/internal/cluster"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

// TestGraphSeamMatchesScalarPeel: the graph-seam clustering path the rating
// engine uses (cluster.BuildGraphL1On + cluster.Build) is byte-identical to
// the scalar slice-of-slices adjacency build plus the peel oracle below,
// across representations and graph-build schedules (DESIGN.md §17).
func TestGraphSeamMatchesScalarPeel(t *testing.T) {
	execs := map[string]*par.Runner{
		"serial":   par.Serial(),
		"fixed3":   par.Fixed(3),
		"parallel": par.Parallel(),
	}
	rng := xrand.New(171)
	for _, n := range []int{1, 9, 64, 150} {
		const m, scale = 48, 5
		rows, _ := Generate(rng.Split(uint64(n)), n, m, maxInt(n/6, 1), 8, scale)
		for _, threshold := range []int{1, m * scale / 10, m * scale / 3} {
			// Scalar reference: the engine's pre-seam [][]int adjacency
			// (every pair's L1 computed from both sides) feeding the scalar
			// peel oracle.
			adj := make([][]int, n)
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					if p != q && rows[p].L1(rows[q]) <= threshold {
						adj[p] = append(adj[p], q)
					}
				}
			}
			for _, minSize := range []int{1, 3, n/4 + 1} {
				want := peel(adj, n, minSize)
				for gname, rep := range map[string]cluster.GraphRep{
					"dense": cluster.RepDense, "sparse": cluster.RepSparse,
				} {
					for ename, exec := range execs {
						got := cluster.Build(cluster.BuildGraphL1On(exec, rows, threshold, rep), minSize)
						if !reflect.DeepEqual(got.Clusters, want.Clusters) ||
							!reflect.DeepEqual(got.Of, want.Of) {
							t.Fatalf("n=%d thr=%d min=%d %s/%s: graph-seam clustering differs from scalar peel",
								n, threshold, minSize, gname, ename)
						}
					}
				}
			}
		}
	}
}

// TestRunPanicsOnLSHIndex: the rating protocol only honors representation
// specs — the banding index hashes Hamming lanes, so Kind "lsh" must panic
// rather than silently fall back.
func TestRunPanicsOnLSHIndex(t *testing.T) {
	truth, _ := Generate(xrand.New(1), 8, 8, 2, 2, 3)
	w := NewWorld(truth, 3)
	pr := Scaled(8, 2)
	pr.NeighborIndex = cluster.IndexSpec{Kind: "lsh"}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for LSH NeighborIndex on the rating path")
		}
	}()
	Run(w, xrand.New(2), pr)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// peel is the scalar §6.5 peeling over a plain adjacency list — the
// engine's pre-seam clustering, kept as the reference oracle the
// graph-seam path (BuildGraphL1On + cluster.Build) is pinned
// byte-identical to.
func peel(adj [][]int, n, minSize int) *cluster.Clustering {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	of := make([]int, n)
	for i := range of {
		of[i] = -1
	}
	var clusters [][]int
	for {
		found := -1
		for p := 0; p < n; p++ {
			if !alive[p] {
				continue
			}
			deg := 0
			for _, q := range adj[p] {
				if alive[q] {
					deg++
				}
			}
			if deg >= minSize-1 {
				found = p
				break
			}
		}
		if found < 0 {
			break
		}
		members := []int{found}
		for _, q := range adj[found] {
			if alive[q] {
				members = append(members, q)
			}
		}
		j := len(clusters)
		for _, q := range members {
			alive[q] = false
			of[q] = j
		}
		clusters = append(clusters, members)
	}
	for p := 0; p < n; p++ {
		if !alive[p] {
			continue
		}
		for _, q := range adj[p] {
			if of[q] >= 0 {
				of[p] = of[q]
				clusters[of[q]] = append(clusters[of[q]], p)
				alive[p] = false
				break
			}
		}
	}
	return &cluster.Clustering{Clusters: clusters, Of: of}
}
