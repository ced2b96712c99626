package smallradius

import (
	"testing"

	"collabscore/internal/adversary"
	"collabscore/internal/bitvec"
	"collabscore/internal/metrics"
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

// runErrors executes SmallRadius and returns the per-honest-player errors
// measured against the truth restricted to objs.
func runErrors(w *world.World, objs []int, d, b int, seed uint64, pr Params) []int {
	out := Run(world.NewRun(w), objs, d, b, xrand.New(seed), pr)
	var errs []int
	for p := 0; p < w.N(); p++ {
		if !w.IsHonest(p) {
			continue
		}
		truth := w.TruthVector(p).Gather(objs)
		errs = append(errs, truth.Hamming(out[p]))
	}
	return errs
}

// TestErrorWithinTheoremBound is Theorem 5: with clusters of diameter ≤ d,
// every player's output is within 5d of its truth.
func TestErrorWithinTheoremBound(t *testing.T) {
	const n, m, b, d = 256, 512, 4, 8
	rng := xrand.New(1)
	in := prefgen.DiameterClusters(rng.Split(1), n, m, n/b, d)
	w := world.New(in.Truth)
	errs := runErrors(w, identityObjs(m), d, b, 7, Scaled(n))
	if mx := metrics.MaxInt(errs); mx > 5*d {
		t.Fatalf("max error %d exceeds Theorem 5 bound %d", mx, 5*d)
	}
}

// TestZeroDiameterIsExactMostly: with identical clusters SmallRadius should
// recover nearly everyone exactly (d=1 guess).
func TestZeroDiameterIsExactMostly(t *testing.T) {
	const n, m, b = 256, 256, 4
	rng := xrand.New(2)
	in := prefgen.IdenticalClusters(rng.Split(1), n, m, n/b)
	w := world.New(in.Truth)
	errs := runErrors(w, identityObjs(m), 1, b, 8, Scaled(n))
	exact := 0
	for _, e := range errs {
		if e == 0 {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(errs)); frac < 0.95 {
		t.Fatalf("exact fraction %.3f, want ≥0.95", frac)
	}
}

// TestSubsetObjects: SmallRadius over an object subset returns vectors
// indexed like the subset and still meets the error bound there.
func TestSubsetObjects(t *testing.T) {
	const n, m, b, d = 128, 512, 4, 6
	rng := xrand.New(3)
	in := prefgen.DiameterClusters(rng.Split(1), n, m, n/b, d)
	w := world.New(in.Truth)
	objs := rng.Split(5).Sample(m, 200)
	out := Run(world.NewRun(w), objs, d, b, xrand.New(11), Scaled(n))
	for p := 0; p < n; p++ {
		if out[p].Len() != len(objs) {
			t.Fatalf("player %d vector length %d, want %d", p, out[p].Len(), len(objs))
		}
	}
	errs := runErrors(w, objs, d, b, 11, Scaled(n))
	if mx := metrics.MaxInt(errs); mx > 5*d {
		t.Fatalf("subset max error %d > %d", mx, 5*d)
	}
}

// TestEmptyObjects must not panic.
func TestEmptyObjects(t *testing.T) {
	rng := xrand.New(4)
	in := prefgen.Uniform(rng.Split(1), 16, 32)
	w := world.New(in.Truth)
	out := Run(world.NewRun(w), nil, 4, 2, xrand.New(13), Scaled(16))
	for p, v := range out {
		if v.Len() != 0 {
			t.Fatalf("player %d got non-empty vector %d", p, v.Len())
		}
	}
}

// TestDishonestEntriesAreClaims: dishonest players' outputs must be their
// strategies' claims, not protocol results.
func TestDishonestEntriesAreClaims(t *testing.T) {
	const n, m, b, d = 128, 256, 4, 4
	rng := xrand.New(5)
	in := prefgen.DiameterClusters(rng.Split(1), n, m, n/b, d)
	w := world.New(in.Truth)
	w.SetBehavior(3, adversary.FlipAll{})
	out := Run(world.NewRun(w), identityObjs(m), d, b, xrand.New(17), Scaled(n))
	want := w.TruthVector(3).Not()
	if !out[3].Equal(want) {
		t.Fatal("dishonest player's entry is not its claim vector")
	}
}

// TestHonestUnaffectedByLiars: up to n/(3B) random liars must not push
// honest errors beyond the Theorem 5 bound.
func TestHonestUnaffectedByLiars(t *testing.T) {
	const n, m, b, d = 256, 512, 4, 8
	rng := xrand.New(6)
	in := prefgen.DiameterClusters(rng.Split(1), n, m, n/b, d)
	w := world.New(in.Truth)
	f := n / (3 * b)
	adversary.Corrupt(w, f, rng.Split(9).Perm(n), func(p int) world.Behavior {
		return adversary.RandomLiar{Seed: 21}
	})
	errs := runErrors(w, identityObjs(m), d, b, 19, Scaled(n))
	if mx := metrics.MaxInt(errs); mx > 5*d {
		t.Fatalf("max honest error %d > %d under liars", mx, 5*d)
	}
}

// TestProbeSavings: for large m the per-player probe count must be well
// below probing everything.
func TestProbeSavings(t *testing.T) {
	const n, m, b, d = 256, 4096, 2, 4
	rng := xrand.New(7)
	in := prefgen.DiameterClusters(rng.Split(1), n, m, n/b, d)
	w := world.New(in.Truth)
	errs := runErrors(w, identityObjs(m), d, b, 23, Scaled(n))
	if mx := metrics.MaxInt(errs); mx > 5*d {
		t.Fatalf("max error %d > %d", mx, 5*d)
	}
	// Each of the two repetitions probes a different random partition, so
	// the bound is per-repetition cost ×2; it must still be well under m.
	if probes := w.MaxHonestProbes(); probes > int64(m)/2 {
		t.Fatalf("max probes %d — insufficient savings vs %d objects", probes, m)
	}
}

// TestNumGroups covers the group-count arithmetic.
func TestNumGroups(t *testing.T) {
	pr := Paper(1024)
	if got := pr.numGroups(4, 10000); got != 8 {
		t.Fatalf("paper numGroups(4) = %d, want 8 (=4^1.5)", got)
	}
	pr = Scaled(1024)
	if got := pr.numGroups(16, 10000); got != 16 {
		t.Fatalf("scaled numGroups(16) = %d, want 16 (=d)", got)
	}
	// Capped by MinGroupObjects.
	if got := pr.numGroups(100, 64); got > 64/pr.MinGroupObjects {
		t.Fatalf("numGroups not capped: %d", got)
	}
	// Degenerate inputs.
	if got := pr.numGroups(0, 100); got < 1 {
		t.Fatalf("numGroups(0) = %d", got)
	}
	if got := pr.numGroups(10, 1); got != 1 {
		t.Fatalf("numGroups with 1 object = %d", got)
	}
}

// TestDeterminism: identical seeds produce identical outputs.
func TestDeterminism(t *testing.T) {
	const n, m, b, d = 128, 256, 4, 6
	sig := func() int {
		rng := xrand.New(25)
		in := prefgen.DiameterClusters(rng.Split(1), n, m, n/b, d)
		w := world.New(in.Truth)
		out := Run(world.NewRun(w), identityObjs(m), d, b, xrand.New(27), Scaled(n))
		total := 0
		for _, v := range out {
			total += v.Count()
		}
		return total
	}
	if sig() != sig() {
		t.Fatal("nondeterministic outputs")
	}
}

// TestSelectConcatAllocs: one honest player's select-and-concatenate step
// — a Select per group with candidates, the ZeroRadius fallback for a
// group without, and the set-bit scatter into the output — allocates only
// the output vector.
func TestSelectConcatAllocs(t *testing.T) {
	const n, m, s = 4, 512, 4
	rng := xrand.New(17)
	in := prefgen.Uniform(rng.Split(1), n, m)
	w := world.New(in.Truth)
	const p = 2
	truth := w.TruthVector(p)
	groups := make([]group, s)
	for g := range groups {
		var positions []int
		for j := g; j < m; j += s {
			positions = append(positions, j)
		}
		own := truth.Gather(positions)
		gr := group{positions: positions, objs: positions, outputs: make([]bitvec.Vector, n)}
		gr.outputs[p] = own
		if g > 0 { // group 0 has no supported candidate: fallback path
			for k := 0; k < 5; k++ {
				v := own.Clone()
				for _, j := range rng.Sample(len(positions), 8*k) {
					v.Flip(j)
				}
				gr.ui = append(gr.ui, v)
			}
		}
		groups[g] = gr
	}
	repRng := rng.Split(2)
	pr := Scaled(n).Sel
	got := selectConcat(w, p, m, groups, 2, repRng, pr)
	if d := got.Hamming(truth); d > 3*8 {
		t.Fatalf("concatenated vector is %d from the truth", d)
	}
	if avg := testing.AllocsPerRun(50, func() { selectConcat(w, p, m, groups, 2, repRng, pr) }); avg != 1 {
		t.Fatalf("select-and-concatenate allocates %.1f times per run, want 1 (the output)", avg)
	}
}
