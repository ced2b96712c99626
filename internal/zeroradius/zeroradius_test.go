package zeroradius

import (
	"testing"

	"collabscore/internal/adversary"
	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

func identityObjs(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

func allPlayers(n int) []int { return identityObjs(n) }

// exactFraction runs ZeroRadius and returns the fraction of honest players
// recovering their exact preference vector, plus the max honest error.
func exactFraction(t *testing.T, w *world.World, in *prefgen.Instance, bPrime int, seed uint64, pr Params) (float64, int) {
	t.Helper()
	n, m := w.N(), w.M()
	out := Run(world.NewRun(w), allPlayers(n), identityObjs(m), bPrime, xrand.New(seed), pr)
	exact, honest, maxErr := 0, 0, 0
	for p := 0; p < n; p++ {
		if !w.IsHonest(p) {
			continue
		}
		honest++
		d := in.Truth[p].Hamming(out[p])
		if d == 0 {
			exact++
		}
		if d > maxErr {
			maxErr = d
		}
	}
	return float64(exact) / float64(honest), maxErr
}

// TestExactRecoveryIdenticalClusters is Theorem 4: with planted identical
// clusters large relative to the vote threshold, every player recovers its
// exact preference vector. The config keeps clusters of size n/B' ≫ the
// per-leaf support threshold, the regime of the whp analysis.
func TestExactRecoveryIdenticalClusters(t *testing.T) {
	const n, m, b = 256, 2048, 2
	rng := xrand.New(11)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	frac, maxErr := exactFraction(t, w, in, b, 21, Defaults())
	if frac != 1 {
		t.Fatalf("exact-recovery fraction %.3f (max err %d), want 1", frac, maxErr)
	}
}

// TestRecoveryModerateClusters: with B'=8 (smaller clusters) occasional
// leaf-level support failures are expected at simulation n, but the vast
// majority of players must still recover exactly.
func TestRecoveryModerateClusters(t *testing.T) {
	const n, m, b = 256, 1024, 8
	rng := xrand.New(13)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	frac, _ := exactFraction(t, w, in, b, 23, Defaults())
	if frac < 0.9 {
		t.Fatalf("exact-recovery fraction %.3f, want ≥ 0.9", frac)
	}
}

// TestProbeComplexity verifies the O(B'·log n) probe bound shape: probes per
// player must be far below m when m is large.
func TestProbeComplexity(t *testing.T) {
	const n, m, b = 256, 4096, 2
	rng := xrand.New(77)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	frac, _ := exactFraction(t, w, in, b, 31, Defaults())
	if frac != 1 {
		t.Fatalf("exact-recovery fraction %.3f, want 1", frac)
	}
	maxProbes := w.MaxHonestProbes()
	if maxProbes >= int64(m)/4 {
		t.Fatalf("probes per player %d — insufficient savings over probing all %d objects", maxProbes, m)
	}
}

// TestSmallInputBaseCase: inputs below the base-case threshold trigger
// probe-everything and must be exactly correct without cluster structure.
func TestSmallInputBaseCase(t *testing.T) {
	const n, m = 4, 64
	rng := xrand.New(3)
	in := prefgen.Uniform(rng.Split(1), n, m)
	w := world.New(in.Truth)
	out := Run(world.NewRun(w), allPlayers(n), identityObjs(m), 2, rng.Split(2), Defaults())
	for p := 0; p < n; p++ {
		if d := in.Truth[p].Hamming(out[p]); d != 0 {
			t.Fatalf("base case player %d error %d", p, d)
		}
	}
}

// TestEmptyInputs must not panic and must return sane shapes.
func TestEmptyInputs(t *testing.T) {
	rng := xrand.New(4)
	in := prefgen.Uniform(rng.Split(1), 4, 8)
	w := world.New(in.Truth)
	out := Run(world.NewRun(w), nil, identityObjs(8), 2, rng.Split(2), Defaults())
	if len(out) != 0 {
		t.Fatalf("no players should give empty output, got %d", len(out))
	}
	out = Run(world.NewRun(w), allPlayers(4), nil, 2, rng.Split(3), Defaults())
	for p, v := range out {
		if v.Len() != 0 {
			t.Fatalf("player %d got vector of length %d for no objects", p, v.Len())
		}
	}
}

// TestSubsetOfObjects: ZeroRadius over a strict subset of the object space
// must return vectors indexed like that subset.
func TestSubsetOfObjects(t *testing.T) {
	const n, m = 64, 128
	rng := xrand.New(5)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, 16)
	w := world.New(in.Truth)
	objs := []int{3, 17, 40, 41, 90, 100, 101, 120}
	out := Run(world.NewRun(w), allPlayers(n), objs, 4, rng.Split(2), Defaults())
	for p := 0; p < n; p++ {
		v := out[p]
		if v.Len() != len(objs) {
			t.Fatalf("player %d vector length %d, want %d", p, v.Len(), len(objs))
		}
		for j, o := range objs {
			if v.Get(j) != w.PeekTruth(p, o) {
				t.Fatalf("player %d wrong at subset position %d (object %d)", p, j, o)
			}
		}
	}
}

// TestDishonestCannotCorruptHonest is the §7.2 remark: dishonest players
// cannot significantly impact ZeroRadius — honest players still recover
// their vectors when enough honest identical peers exist.
func TestDishonestCannotCorruptHonest(t *testing.T) {
	const n, m, b = 256, 2048, 2
	rng := xrand.New(6)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	f := n / (3 * b)
	perm := rng.Split(9).Perm(n)
	adversary.Corrupt(w, f, perm, func(p int) world.Behavior {
		return adversary.RandomLiar{Seed: 11}
	})
	frac, maxErr := exactFraction(t, w, in, b, 41, Defaults())
	if frac != 1 {
		t.Fatalf("honest exact-recovery fraction %.3f (max err %d) under random liars, want 1", frac, maxErr)
	}
}

// TestColludersCannotInjectWinningVector: a dishonest bloc publishing a
// coordinated junk vector may enter the candidate set, but honest players'
// elimination probes discard it.
func TestColludersCannotInjectWinningVector(t *testing.T) {
	const n, m, b = 256, 2048, 2
	rng := xrand.New(8)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	f := n / (3 * b)
	coll := adversary.NewColluder(99, m)
	perm := rng.Split(10).Perm(n)
	adversary.Corrupt(w, f, perm, func(p int) world.Behavior { return coll })
	frac, maxErr := exactFraction(t, w, in, b, 43, Defaults())
	if frac != 1 {
		t.Fatalf("honest exact-recovery fraction %.3f (max err %d) under colluders, want 1", frac, maxErr)
	}
}

// TestDeterminism: same world + same stream → identical outputs.
func TestDeterminism(t *testing.T) {
	const n, m = 64, 128
	mk := func() map[int]int {
		rng := xrand.New(12)
		in := prefgen.IdenticalClusters(rng.Split(1), n, m, 16)
		w := world.New(in.Truth)
		out := Run(world.NewRun(w), allPlayers(n), identityObjs(m), 4, rng.Split(2), Defaults())
		sig := make(map[int]int, n)
		for p, v := range out {
			sig[p] = v.Count()
		}
		return sig
	}
	a, b := mk(), mk()
	for p := range a {
		if a[p] != b[p] {
			t.Fatal("nondeterministic output")
		}
	}
}

// TestSplitHalfNonEmpty: the partition helper never returns an empty half
// for inputs of size ≥ 2.
func TestSplitHalfNonEmpty(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 200; trial++ {
		size := 2 + rng.Intn(50)
		xs := make([]int, size)
		for i := range xs {
			xs[i] = i
		}
		a, b := splitHalf(rng, xs)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("empty half for size %d", size)
		}
		if len(a)+len(b) != size {
			t.Fatalf("lost elements: %d + %d != %d", len(a), len(b), size)
		}
	}
}

// TestScaledParamsStillRecover: the simulation-scale parameterization keeps
// exact recovery in the planted regime.
func TestScaledParamsStillRecover(t *testing.T) {
	const n, m, b = 256, 512, 2
	rng := xrand.New(15)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	frac, maxErr := exactFraction(t, w, in, b, 51, Scaled())
	if frac < 0.99 {
		t.Fatalf("scaled exact-recovery fraction %.3f (max err %d), want ≥0.99", frac, maxErr)
	}
}

// eliminateOracle is the list-based elimination loop eliminate replaced:
// it copies the survivors, records every probe in a map, and returns the
// survivor agreeing best with the recorded probes.
func eliminateOracle(rc *world.Run, p int, objs []int, cands []bitvec.Vector) bitvec.Vector {
	if len(objs) == 0 {
		return bitvec.New(0)
	}
	if len(cands) == 0 {
		return bitvec.New(len(objs))
	}
	survivors := append([]bitvec.Vector(nil), cands...)
	probed := map[int]bool{}
	for len(survivors) > 1 {
		j := -1
		for _, v := range survivors[1:] {
			if d := survivors[0].FirstDiff(v); d >= 0 {
				j = d
				break
			}
		}
		if j < 0 {
			break
		}
		truth := rc.Probe(p, objs[j])
		probed[j] = truth
		var next []bitvec.Vector
		for _, c := range survivors {
			if c.Get(j) == truth {
				next = append(next, c)
			}
		}
		if len(next) == 0 {
			next = survivors[:len(survivors)-1]
		}
		survivors = next
	}
	best, bestScore := survivors[0], -1
	for _, c := range survivors {
		score := 0
		for j, truth := range probed {
			if c.Get(j) == truth {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// eliminateCands returns k candidates over objs for player p: near copies
// of p's truth (a few flips each, so p's own vector is usually not among
// them) and unrelated vectors, with duplicates.
func eliminateCands(w *world.World, p int, objs []int, k int, rng *xrand.Stream) []bitvec.Vector {
	truth := w.TruthVector(p).Gather(objs)
	var cands []bitvec.Vector
	for i := 0; i < k; i++ {
		var v bitvec.Vector
		switch i % 3 {
		case 0:
			v = truth.Clone()
			for _, j := range rng.Sample(len(objs), 1+rng.Intn(3)) {
				v.Flip(j)
			}
		case 1:
			v = bitvec.New(len(objs))
			for j := 0; j < len(objs); j++ {
				v.Set(j, rng.Bool())
			}
		default:
			v = cands[rng.Intn(len(cands))]
		}
		cands = append(cands, v)
	}
	return cands
}

// TestEliminateMatchesOracle: the index-filtering elimination returns the
// same vector and charges the same probes as the list-based loop, for
// candidate sets inside and past the stack buffer and for empty inputs.
func TestEliminateMatchesOracle(t *testing.T) {
	const n, m = 8, 300
	objs := make([]int, 0, m/2)
	for o := 1; o < m; o += 2 {
		objs = append(objs, o)
	}
	for trial := 0; trial < 60; trial++ {
		rng := xrand.New(uint64(trial))
		in := prefgen.Uniform(rng.Split(1), n, m)
		wa, wb := world.New(in.Truth), world.New(in.Truth)
		k := 1 + rng.Intn(2*maxStackCands)
		cands := eliminateCands(wa, trial%n, objs, k, rng.Split(2))
		p := trial % n
		got := eliminate(world.NewRun(wa), p, objs, cands)
		want := eliminateOracle(world.NewRun(wb), p, objs, cands)
		if !got.Equal(want) {
			t.Fatalf("trial %d (k=%d): eliminate chose a different vector", trial, k)
		}
		if wa.Probes(p) != wb.Probes(p) {
			t.Fatalf("trial %d (k=%d): probes %d, oracle %d", trial, k, wa.Probes(p), wb.Probes(p))
		}
	}
	// No candidates, or no objects: a zero vector of the object count.
	w := world.New(prefgen.Uniform(xrand.New(1), n, m).Truth)
	if got := eliminate(world.NewRun(w), 0, objs, nil); got.Len() != len(objs) || got.Count() != 0 {
		t.Fatalf("no candidates: got %v, want the zero vector over %d objects", got, len(objs))
	}
	if got := eliminate(world.NewRun(w), 0, nil, []bitvec.Vector{bitvec.New(0)}); got.Len() != 0 {
		t.Fatalf("no objects: got length %d, want 0", got.Len())
	}
	if w.Probes(0) != 0 {
		t.Fatalf("degenerate eliminations charged %d probes", w.Probes(0))
	}
}

// TestEliminateAllocFree: with the candidates inside its stack buffer,
// eliminate allocates nothing.
func TestEliminateAllocFree(t *testing.T) {
	const n, m = 4, 512
	rng := xrand.New(3)
	in := prefgen.Uniform(rng.Split(1), n, m)
	w := world.New(in.Truth)
	rc := world.NewRun(w)
	objs := identityObjs(m)
	cands := eliminateCands(w, 1, objs, maxStackCands, rng.Split(2))
	if avg := testing.AllocsPerRun(50, func() { eliminate(rc, 1, objs, cands) }); avg != 0 {
		t.Fatalf("eliminate allocates %.1f times per run, want 0", avg)
	}
}

// TestParallelMatchesSerial: the recursion's branches and per-player loops
// share one player-indexed output slice without a lock; under eight
// fixed workers (real interleavings even on one core; run with -race) the
// outputs and probe charges equal the serial schedule's.
func TestParallelMatchesSerial(t *testing.T) {
	const n, m, b = 160, 300, 4
	run := func(exec *par.Runner) ([]bitvec.Vector, *world.World) {
		rng := xrand.New(19)
		in := prefgen.DiameterClusters(rng.Split(1), n, m, n/b, 2)
		w := world.New(in.Truth)
		c := adversary.NewColluder(5, m)
		adversary.Corrupt(w, n/(3*b), rng.Split(3).Perm(n), func(int) world.Behavior { return c })
		return Run(world.NewRunOn(w, exec), allPlayers(n), identityObjs(m), b, rng.Split(2), Scaled()), w
	}
	ref, refW := run(par.Serial())
	got, gotW := run(par.Fixed(8))
	for p := 0; p < n; p++ {
		if !got[p].Equal(ref[p]) {
			t.Fatalf("player %d: parallel output differs from serial", p)
		}
		if gotW.Probes(p) != refW.Probes(p) {
			t.Fatalf("player %d: probes %d, serial %d", p, gotW.Probes(p), refW.Probes(p))
		}
	}
}
