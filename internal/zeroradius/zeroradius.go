// Package zeroradius implements the ZeroRadius protocol of Figure 1
// (originally from Awerbuch et al. [4]): collaborative scoring under the
// assumption that each player belongs to a set of at least |P|/B' players
// with *identical* preferences.
//
// The protocol recursively halves both the player set and the object set.
// Each half solves its own subproblem; the halves then exchange results:
// the vectors output by at least |P”|/(2B') players of the other half form
// a candidate set, and each player disambiguates between candidates by
// probing objects on which they disagree. Every such probe eliminates at
// least one candidate, and there are at most 2B' candidates, so the merge
// costs O(B') probes per level and O(B'·log n) probes overall (Theorem 4).
//
// Dishonest players participate by publishing whatever vectors their
// strategies dictate; they can inject at most a bounded number of candidate
// vectors (each needs |P”|/(2B') supporters), and the probe-to-eliminate
// loop discards any candidate that contradicts the prober's own truth.
package zeroradius

import (
	"math"
	"sort"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Params carries the protocol's tunable constants.
type Params struct {
	// BaseFactor sets the recursion base case: when min(|P|, |O|) is at most
	// BaseFactor·B'·ln n, every player probes every object directly.
	BaseFactor float64
	// BaseObjects, when positive, overrides the base-case threshold for the
	// object dimension only. The paper's B'·log n base case already exceeds
	// realistic object sets at laptop scale; a small absolute object base
	// keeps the recursion (and its probe savings) alive there. The player
	// dimension always keeps the BaseFactor·B'·ln n floor: leaf player sets
	// must retain Ω(log n) members of every size-|P|/B' cluster or the
	// publisher side can lose a cluster's vector entirely.
	BaseObjects int
	// VoteDivisor sets the candidate support threshold |P''|/(VoteDivisor·B')
	// (paper: 2).
	VoteDivisor float64
}

// Defaults returns the paper's constants. BaseFactor 2 keeps the recursion
// shallow enough that every leaf player-set retains ≈2·ln n members of each
// size-|P|/B' cluster, so the probability that a cluster publishes nothing
// at some merge is ≈n^{-2} — the whp regime of Theorem 4. The base case
// then costs at most 2·B'·ln n probes, within the O(B'·log n) budget.
func Defaults() Params { return Params{BaseFactor: 2, VoteDivisor: 2} }

// Scaled returns simulation-scale constants: a small absolute object-side
// base case (the probe saver) with the same player-side floor as Defaults
// (the concentration guard).
func Scaled() Params { return Params{BaseFactor: 2, BaseObjects: 16, VoteDivisor: 2} }

// Run executes ZeroRadius for every player in P over the objects objs
// (global ids), with cluster-size bound B' (the protocol assumes each
// honest player has ≥ |P|/B' identical peers in P). shared supplies the
// shared randomness (partitions); each player's private elimination coins
// are split from it per player id, which is harmless because elimination
// probes are verified against the player's own truth.
//
// The result is indexed by player id (length rc.N(); nil when P is empty):
// entry p, for p in P, is p's output vector indexed like objs, and every
// other entry is the zero Vector. Honest players in qualifying zero-radius
// clusters receive their true preferences whp; other players receive
// best-effort vectors.
//
// The recursion's two halves and every per-player loop (base-case reports,
// cross-fill elimination, vector assembly) fan out on rc's executor with
// per-branch split streams. Every node writes only the entries of its own
// players, and sibling nodes own disjoint players, so the branches share
// the one output slice without a lock, and fixed-seed output is
// byte-identical under any schedule (DESIGN.md §9).
func Run(rc *world.Run, P []int, objs []int, bPrime int, shared *xrand.Stream, pr Params) []bitvec.Vector {
	if bPrime < 1 {
		bPrime = 1
	}
	if len(P) == 0 {
		return nil
	}
	out := make([]bitvec.Vector, rc.N())
	run(rc, P, objs, bPrime, shared, pr, out, 0)
	return out
}

// run solves one recursion node: on return, out[p] holds player p's vector
// over objs for every p in P.
func run(rc *world.Run, P []int, objs []int, bPrime int, shared *xrand.Stream, pr Params, out []bitvec.Vector, depth int) {
	n := rc.N()
	basePlayers := int(math.Ceil(pr.BaseFactor * float64(bPrime) * math.Log(float64(n)+2)))
	if basePlayers < 2 {
		basePlayers = 2
	}
	baseObjects := basePlayers
	if pr.BaseObjects > 0 {
		baseObjects = pr.BaseObjects
	}
	if baseObjects < 2 {
		baseObjects = 2
	}
	if len(P) <= basePlayers || len(objs) <= baseObjects {
		// Base case: every player reports every object directly.
		rc.Exec().For(len(P), func(i int) { out[P[i]] = rc.ReportVector(P[i], objs) })
		return
	}

	// Shared random partition of players and objects into halves. Derive a
	// child stream per recursion node so parallel branches do not race. The
	// objects split as positions within objs (same coins, one per object),
	// so each half's position list is also the index list that places its
	// vectors back into objs.
	nodeRng := shared.Split(uint64(depth), uint64(len(P)), uint64(len(objs)))
	p0, p1 := splitHalf(nodeRng, P)
	pos := make([]int, len(objs))
	for j := range pos {
		pos[j] = j
	}
	j0, j1 := splitHalf(nodeRng, pos)
	o0, o1 := gather(objs, j0), gather(objs, j1)

	// Recurse on both halves in parallel.
	rc.Exec().Do(
		func() { run(rc, p0, o0, bPrime, nodeRng.Split(0), pr, out, depth+1) },
		func() { run(rc, p1, o1, bPrime, nodeRng.Split(1), pr, out, depth+1) },
	)

	// Cross-fill: players of each half learn the other half's objects from
	// the vectors published by the other half's players. Both run before
	// either half's assembly overwrites its players' entries.
	cross0 := crossFill(rc, p0, o1, out, p1, bPrime, pr) // P0 learns O1
	cross1 := crossFill(rc, p1, o0, out, p0, bPrime, pr) // P1 learns O0

	// Assemble full vectors over objs by scattering the set bits of each
	// player's own-half and cross-half vectors through the position lists.
	assemble := func(P []int, own, other []int, cross []bitvec.Vector) {
		rc.Exec().For(len(P), func(i int) {
			p := P[i]
			v := bitvec.New(len(objs))
			v.ScatterOnes(own, out[p])
			v.ScatterOnes(other, cross[i])
			out[p] = v
		})
	}
	assemble(p0, j0, j1, cross0)
	assemble(p1, j1, j0, cross1)
}

// gather returns xs[idx[0]], xs[idx[1]], ….
func gather(xs, idx []int) []int {
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// splitHalf partitions xs into two halves using independent fair coins,
// guaranteeing both halves are non-empty (it moves one element if needed).
func splitHalf(rng *xrand.Stream, xs []int) (a, b []int) {
	for _, x := range xs {
		if rng.Bool() {
			a = append(a, x)
		} else {
			b = append(b, x)
		}
	}
	if len(a) == 0 && len(b) > 1 {
		a = append(a, b[len(b)-1])
		b = b[:len(b)-1]
	}
	if len(b) == 0 && len(a) > 1 {
		b = append(b, a[len(a)-1])
		a = a[:len(a)-1]
	}
	return a, b
}

// candidate is a distinct published vector with its supporter count.
type candidate struct {
	vec     bitvec.Vector
	support int
	key     string
}

// crossFill computes, for every player in learners, its vector over objs
// from the vectors published by the players in publishers (publisher q's
// output over objs is pub[q]). The result is indexed like learners.
//
// Candidate selection: the paper admits vectors with support
// ≥ |publishers|/(VoteDivisor·B'), which bounds the candidate count by
// VoteDivisor·B'. At simulation scale, deep recursion leaves can
// under-represent a cluster below that threshold, silently dropping its
// true vector and corrupting the whole subtree; we therefore also admit the
// top 2B' vectors by support. The candidate count stays O(B') — the probe
// budget of the elimination loop is unchanged — and the elimination probes
// discard any junk this lets in.
func crossFill(rc *world.Run, learners []int, objs []int, pub []bitvec.Vector, publishers []int, bPrime int, pr Params) []bitvec.Vector {
	// Tally distinct published vectors.
	tally := make(map[string]*candidate)
	for _, q := range publishers {
		v := pub[q]
		k := v.Key()
		if c, ok := tally[k]; ok {
			c.support++
		} else {
			tally[k] = &candidate{vec: v, support: 1}
		}
	}
	all := make([]*candidate, 0, len(tally))
	for k, c := range tally {
		c.key = k
		all = append(all, c)
	}
	// Deterministic order: by support descending, then key.
	sort.Slice(all, func(i, j int) bool {
		if all[i].support != all[j].support {
			return all[i].support > all[j].support
		}
		return all[i].key < all[j].key
	})
	threshold := float64(len(publishers)) / (pr.VoteDivisor * float64(bPrime))
	if threshold < 1 {
		threshold = 1
	}
	topK := 2 * bPrime
	var cands []bitvec.Vector
	for i, c := range all {
		if float64(c.support) >= threshold || i < topK {
			cands = append(cands, c.vec)
		}
	}

	return par.MapOn(rc.Exec(), len(learners), func(i int) bitvec.Vector {
		p := learners[i]
		if !rc.IsHonest(p) {
			// A dishonest player publishes its strategy's claims rather
			// than running the elimination loop.
			return rc.ReportVector(p, objs)
		}
		return eliminate(rc, p, objs, cands)
	})
}

// maxStackCands is the candidate count eliminate filters in its stack
// buffer. Candidate sets are O(B') — at most VoteDivisor·B' supported
// vectors plus the top 2B' — so real configurations fit; larger sets
// spill to one heap buffer per call.
const maxStackCands = 128

// eliminate runs the probe-to-disambiguate loop of Figure 1 step 5 for one
// player: while surviving candidates disagree somewhere, probe such an
// object and drop the candidates that contradict the probe. Truth is
// binary, so at a disagreement some survivor always matches the probe:
// each probe removes at least one candidate and never all of them. (When
// the player deviates from every candidate, as in SmallRadius groups whose
// clusters have diameter ≈1 rather than 0, the loop still ends on a
// best-effort survivor.)
//
// The survivors are candidate indices filtered in place in a stack buffer,
// so the loop allocates nothing. The winner is the last survivor standing,
// or the first of several identical ones; every survivor agrees with every
// probe made. It is returned as-is: candidate vectors are shared,
// immutable inputs, and every downstream consumer only reads them.
func eliminate(rc *world.Run, p int, objs []int, cands []bitvec.Vector) bitvec.Vector {
	if len(objs) == 0 {
		return bitvec.New(0)
	}
	if len(cands) == 0 {
		return bitvec.New(len(objs))
	}
	var buf [maxStackCands]int32
	alive := buf[:0]
	if len(cands) > len(buf) {
		alive = make([]int32, 0, len(cands))
	}
	for i := range cands {
		alive = append(alive, int32(i))
	}
	for len(alive) > 1 {
		j := firstDisagreement(cands, alive)
		if j < 0 {
			break // all survivors identical on objs
		}
		var truth uint64
		if rc.Probe(p, objs[j]) {
			truth = 1
		}
		wi, bit := j/64, uint(j)%64
		k := 0
		for _, c := range alive {
			if cands[c].Word(wi)>>bit&1 == truth {
				alive[k] = c
				k++
			}
		}
		alive = alive[:k]
	}
	return cands[alive[0]]
}

// firstDisagreement returns an index where at least two of the surviving
// candidates differ, or -1 if they are all identical. FirstDiff scans
// words and allocates nothing.
func firstDisagreement(cands []bitvec.Vector, alive []int32) int {
	base := cands[alive[0]]
	for _, i := range alive[1:] {
		if d := base.FirstDiff(cands[i]); d >= 0 {
			return d
		}
	}
	return -1
}
