// Package cluster implements step 3 of CalculatePreferences (§6.5): build a
// neighbor graph over players from their estimated preferences on the
// sample set, then peel off clusters of size at least n/B.
//
// Two players share an edge iff their sample-set vectors differ in at most
// the edge threshold (paper: 220·ln n). Lemma 8 shows edges connect only
// players whose true distance is ≤ 84·D, and every player has degree
// ≥ n/B − 1 when the diameter guess D is correct; Lemma 9 shows the peeled
// clusters have size ≥ n/B and diameter O(D).
//
// BuildGraph and Build are pure functions of their inputs (they touch no
// world or board state), so concurrent protocol runs — e.g. parallel
// Byzantine repetitions, DESIGN.md §6 — may call them freely on their own
// z-vectors. Within one run, the O(n²) pairwise sweep is itself
// block-partitioned across the run's executor (BuildGraphOn, DESIGN.md
// §9), and neighbor discovery as a whole is pluggable through the
// NeighborIndex seam (index.go, DESIGN.md §13) — the exact sweep is the
// default and reference oracle, the LSH banding index the sub-quadratic
// alternative. HOW the discovered edges are stored is a second, orthogonal
// seam (DESIGN.md §16): Graph is an interface, BitGraph the dense bitset
// reference implementation, CSRGraph the sparse one that holds only the
// Θ(n·size) edges the index actually emits. The peeling in Build stays
// sequential because each peel depends on which players the previous peel
// removed, and it is a cheap scan over the precomputed adjacency.
package cluster

import (
	"math/bits"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
)

// Clustering is the output of Build: a partition of (most) players into
// clusters, plus per-player membership. Players with no graph neighbors at
// all remain unassigned (Of[p] == -1); under a correct diameter guess this
// does not happen (Lemma 8), and under wrong guesses the caller's final
// RSelect discards the affected candidate vectors.
type Clustering struct {
	// Clusters lists player ids per cluster.
	Clusters [][]int
	// Of maps player id → cluster index, or -1 if unassigned.
	Of []int
}

// Graph is the neighbor-graph abstraction the clustering consumers use —
// exactly the queries Build's peeling/attachment and the budgets capacity
// iteration need, so any representation that answers them yields
// byte-identical clusterings. BitGraph (dense n-bit adjacency rows, the
// small-n default and reference oracle) and CSRGraph (per-vertex sorted
// edge lists, the at-scale representation) both implement it; the
// representation is chosen through IndexSpec (DESIGN.md §16).
//
// All implementations present neighbors in strictly increasing id order —
// Build's member ordering, and hence the whole downstream protocol,
// depends on it.
type Graph interface {
	// N returns the number of players in the graph.
	N() int
	// Degree returns the degree of player p.
	Degree(p int) int
	// Adjacent reports whether p and q share an edge.
	Adjacent(p, q int) bool
	// VisitNeighbors calls fn on p's neighbors in increasing id order,
	// stopping early when fn returns false — the attachment phases here
	// and in budgets scan until the first assigned neighbor.
	VisitNeighbors(p int, fn func(q int) bool)
	// LiveDegree returns the number of p's neighbors q with alive.Get(q)
	// set — the peel's per-candidate qualification test. Implementations
	// must not allocate (the scan runs once per candidate per round).
	LiveDegree(p int, alive bitvec.Vector) int
	// AppendLiveNeighbors appends p's neighbors q with alive.Get(q) set to
	// dst in increasing id order and returns the extended slice, so the
	// peel can reuse one scratch slice across rounds.
	AppendLiveNeighbors(dst []int, p int, alive bitvec.Vector) []int
}

// BitGraph is the dense neighbor-graph representation: adjacency encoded
// as one bit vector of players per player, enabling word-parallel degree
// counting. Its n² bits make it the reference oracle and the small-n
// default; at large n the CSRGraph holds the same edges in Θ(edges) words.
type BitGraph struct {
	n   int
	adj []bitvec.Vector
}

// blockRows is the row-block granularity of the pairwise sweep. It is a
// multiple of 64 so that a block's column range covers whole words of every
// adjacency row: two tasks writing different column blocks of the same row
// then touch disjoint words of its backing array, which lets the sweep set
// both directions of each edge without locks or merge buffers.
const blockRows = 64

// BuildGraph constructs the dense neighbor graph from sample-set vectors:
// players p and q are adjacent iff |z(p) − z(q)| ≤ threshold. z must
// contain a vector of a common length for every player id in [0,n). It
// runs on the default parallel executor; BuildGraphOn accepts an explicit
// one.
func BuildGraph(z []bitvec.Vector, threshold int) *BitGraph {
	return BuildGraphOn(nil, z, threshold)
}

// BuildGraphOn is BuildGraph under the given executor (nil means parallel;
// par.Serial() gives the reference schedule of DESIGN.md §9).
//
// The O(n²) pairwise-Hamming sweep is the serial bottleneck of the
// clustering step, so it is block-partitioned: rows are cut into
// word-aligned blocks of blockRows players, and each task owns one block
// pair (bi ≤ bj), computing every distance with p < q exactly once and
// setting both adj[p](q) and adj[q](p). Word alignment makes the writes of
// distinct tasks land in disjoint words (see blockRows), so the schedule
// cannot affect the result: the graph is a pure function of z and
// threshold under any executor.
func BuildGraphOn(exec *par.Runner, z []bitvec.Vector, threshold int) *BitGraph {
	n := len(z)
	g := newBitGraph(n)
	sweepPairs(exec, z, threshold, func(p, q int) {
		g.adj[p].Set(q, true)
		g.adj[q].Set(p, true)
	})
	return g
}

// sweepPairs runs the block-partitioned all-pairs sweep and calls emit for
// every pair p < q within threshold. Tasks write through emit concurrently;
// the two callers make that safe in different ways (word-disjoint bitset
// writes here, per-worker buffers in the sparse builder).
func sweepPairs(exec *par.Runner, z []bitvec.Vector, threshold int, emit func(p, q int)) {
	n := len(z)
	nb := (n + blockRows - 1) / blockRows
	type blockPair struct{ bi, bj int }
	tasks := make([]blockPair, 0, nb*(nb+1)/2)
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			tasks = append(tasks, blockPair{bi, bj})
		}
	}
	exec.For(len(tasks), func(t int) {
		bi, bj := tasks[t].bi, tasks[t].bj
		pHi := min(n, (bi+1)*blockRows)
		qHi := min(n, (bj+1)*blockRows)
		for p := bi * blockRows; p < pHi; p++ {
			qLo := bj * blockRows
			if bi == bj {
				qLo = p + 1
			}
			for q := qLo; q < qHi; q++ {
				if z[p].Hamming(z[q]) <= threshold {
					emit(p, q)
				}
			}
		}
	})
}

func newBitGraph(n int) *BitGraph {
	g := &BitGraph{n: n, adj: make([]bitvec.Vector, n)}
	for p := range g.adj {
		g.adj[p] = bitvec.New(n)
	}
	return g
}

// N returns the number of players in the graph.
func (g *BitGraph) N() int { return g.n }

// Degree returns the degree of player p.
func (g *BitGraph) Degree(p int) int { return g.adj[p].Count() }

// Adjacent reports whether p and q share an edge.
func (g *BitGraph) Adjacent(p, q int) bool { return g.adj[p].Get(q) }

// Neighbors returns the neighbor ids of player p.
func (g *BitGraph) Neighbors(p int) []int { return g.adj[p].OnesIndices() }

// VisitNeighbors calls fn on p's neighbors in increasing id order, stopping
// early when fn returns false. It walks the adjacency bitset words directly
// — the allocation-free counterpart of Neighbors for callers that only scan
// until a match (the attachment phases here and in budgets).
func (g *BitGraph) VisitNeighbors(p int, fn func(q int) bool) {
	row := g.adj[p]
	for wi, nw := 0, row.Words(); wi < nw; wi++ {
		for x := row.Word(wi); x != 0; x &= x - 1 {
			if !fn(wi*64 + bits.TrailingZeros64(x)) {
				return
			}
		}
	}
}

// LiveDegree counts p's surviving neighbors by a word-parallel AND
// popcount against the alive set — allocation-free (bitvec.AndCount),
// where the pre-seam peel materialized a fresh n-bit AND vector per
// scanned candidate per round.
func (g *BitGraph) LiveDegree(p int, alive bitvec.Vector) int {
	return g.adj[p].AndCount(alive)
}

// AppendLiveNeighbors appends p's surviving neighbors in increasing id
// order, walking the AND words in place (bitvec.AndOnesInto).
func (g *BitGraph) AppendLiveNeighbors(dst []int, p int, alive bitvec.Vector) []int {
	return g.adj[p].AndOnesInto(alive, dst)
}

// Build peels clusters from the graph per §6.5: repeatedly pick a player
// with at least minSize−1 surviving neighbors, make a cluster of it and its
// surviving neighbors, and remove them; then attach each leftover player to
// a cluster containing one of its original neighbors. It is the only
// unit-weight peel, and serial on every schedule (DESIGN.md §17). It
// consumes the graph purely through the Graph interface, so dense and
// sparse representations of the same edge set produce byte-identical
// clusterings (TestBuildMatchesAcrossRepresentations).
func Build(g Graph, minSize int) *Clustering {
	if minSize < 1 {
		minSize = 1
	}
	n := g.N()
	alive := bitvec.New(n)
	for p := 0; p < n; p++ {
		alive.Set(p, true)
	}
	of := make([]int, n)
	for p := range of {
		of[p] = -1
	}
	var clusters [][]int

	// Peeling phase. Scanning players in id order is deterministic; the
	// paper allows any choice. The scan keeps a monotone cursor rather than
	// restarting at 0 after every peel: removals only ever shrink surviving
	// degree, so a player rejected in an earlier pass can never later
	// qualify — the first qualifying player is always past the previous one
	// (output byte-identical to the full rescan; TestPeelCursorMatchesRescan
	// pins it). The live-neighbor scratch is reused across peels; each
	// cluster still gets its own freshly allocated member slice.
	cursor := 0
	var live []int
	for {
		found := -1
		for p := cursor; p < n; p++ {
			if !alive.Get(p) {
				continue
			}
			if g.LiveDegree(p, alive) >= minSize-1 {
				found = p
				break
			}
		}
		if found < 0 {
			break
		}
		cursor = found + 1
		live = g.AppendLiveNeighbors(live[:0], found, alive)
		members := make([]int, 0, 1+len(live))
		members = append(members, found)
		members = append(members, live...)
		j := len(clusters)
		for _, q := range members {
			alive.Set(q, false)
			of[q] = j
		}
		clusters = append(clusters, members)
	}

	// Attachment phase: leftover players join the cluster of their first
	// (lowest-id) assigned original neighbor (V'_j in the paper), scanning
	// the adjacency in place instead of materializing a neighbor slice per
	// leftover player. Attachment marks of[p] only — nothing reads alive
	// after the peel (a historical alive.Set(p, false) here was a dead
	// write; later iterations test of[q] < 0, and an attached player is a
	// valid attachment target either way).
	for p := 0; p < n; p++ {
		if of[p] >= 0 {
			continue
		}
		g.VisitNeighbors(p, func(q int) bool {
			if of[q] < 0 {
				return true
			}
			of[p] = of[q]
			clusters[of[q]] = append(clusters[of[q]], p)
			return false
		})
	}
	return &Clustering{Clusters: clusters, Of: of}
}

// BuildOn forwards to Build; exec is ignored. It is kept only because the
// benchmark harness (perfbench) calls it by name.
func BuildOn(_ *par.Runner, g Graph, minSize int) *Clustering {
	return Build(g, minSize)
}

// Diameter computes the exact maximum pairwise Hamming distance of the
// given players' vectors. Measurement/testing helper; DiameterOn accepts
// an explicit executor.
func Diameter(vecs []bitvec.Vector, members []int) int {
	return DiameterOn(nil, vecs, members)
}

// DiameterOn is Diameter under the given executor (nil means parallel).
// The pairwise max sweep fans out per anchor index with a private maximum
// each, merged by a final max-reduce — commutative, so the result is
// schedule-independent.
func DiameterOn(exec *par.Runner, vecs []bitvec.Vector, members []int) int {
	k := len(members)
	rowMax := par.MapOn(exec, k, func(i int) int {
		mx := 0
		for j := i + 1; j < k; j++ {
			if d := vecs[members[i]].Hamming(vecs[members[j]]); d > mx {
				mx = d
			}
		}
		return mx
	})
	mx := 0
	for _, d := range rowMax {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// MinClusterSize returns the size of the smallest cluster, or 0 if there
// are none.
func (c *Clustering) MinClusterSize() int {
	if len(c.Clusters) == 0 {
		return 0
	}
	mn := len(c.Clusters[0])
	for _, cl := range c.Clusters[1:] {
		if len(cl) < mn {
			mn = len(cl)
		}
	}
	return mn
}

// Unassigned returns the ids of players not placed in any cluster.
func (c *Clustering) Unassigned() []int {
	var out []int
	for p, j := range c.Of {
		if j < 0 {
			out = append(out, p)
		}
	}
	return out
}
