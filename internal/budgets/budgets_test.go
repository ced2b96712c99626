package budgets

import (
	"testing"
	"testing/quick"

	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

func TestUniformCapacityMatchesCore(t *testing.T) {
	// Uniform capacities reduce to the homogeneous protocol: error O(D).
	const n, d = 512, 32
	rng := xrand.New(1)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	w := world.New(in.Truth)
	pr := Scaled(n, Uniform(n, 128))
	pr.MinD, pr.MaxD = d, d
	res := Run(w, rng.Split(2), pr)
	es := metrics.Error(w, res.Output)
	if es.Max > 2*d {
		t.Fatalf("max error %d > %d", es.Max, 2*d)
	}
	if res.NumClusters == 0 {
		t.Fatal("no clusters formed")
	}
}

func TestTwoTierAccuracy(t *testing.T) {
	const n, d = 512, 32
	rng := xrand.New(3)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	w := world.New(in.Truth)
	caps := TwoTier(rng.Split(5), n, 32, 512, 0.25)
	pr := Scaled(n, caps)
	pr.MinD, pr.MaxD = d, d
	res := Run(w, rng.Split(2), pr)
	es := metrics.Error(w, res.Output)
	if es.Max > 2*d {
		t.Fatalf("two-tier max error %d > %d", es.Max, 2*d)
	}
}

func TestLoadProportionalToCapacity(t *testing.T) {
	// Big-capacity players must carry substantially more of the probing
	// work than small-capacity players in the same cluster.
	const n, d = 512, 32
	rng := xrand.New(7)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	w := world.New(in.Truth)
	caps := TwoTier(rng.Split(5), n, 16, 256, 0.5)
	pr := Scaled(n, caps)
	pr.MinD, pr.MaxD = d, d
	Run(w, rng.Split(2), pr)
	var bigTotal, bigN, smallTotal, smallN int64
	for p := 0; p < n; p++ {
		if caps[p] == 256 {
			bigTotal += w.Probes(p)
			bigN++
		} else {
			smallTotal += w.Probes(p)
			smallN++
		}
	}
	bigMean := float64(bigTotal) / float64(bigN)
	smallMean := float64(smallTotal) / float64(smallN)
	if bigMean < 2*smallMean {
		t.Fatalf("big-capacity mean %.1f not ≫ small-capacity mean %.1f", bigMean, smallMean)
	}
}

func TestClusterCapacityMeetsNeed(t *testing.T) {
	const n, d = 512, 32
	rng := xrand.New(9)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	w := world.New(in.Truth)
	pr := Scaled(n, Uniform(n, 64))
	pr.MinD, pr.MaxD = d, d
	res := Run(w, rng.Split(2), pr)
	for j, c := range res.ClusterCapacity {
		if c <= 0 {
			t.Fatalf("cluster %d capacity %d", j, c)
		}
	}
}

func TestPanicsOnBadCapacity(t *testing.T) {
	rng := xrand.New(11)
	in := prefgen.Uniform(rng.Split(1), 16, 16)
	w := world.New(in.Truth)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short capacity vector")
		}
	}()
	Run(w, rng.Split(2), Scaled(16, Uniform(8, 4)))
}

func TestWeightedPick(t *testing.T) {
	rng := xrand.New(13)
	// weights 1, 3 → cumulative [1, 4]; index 1 should win ~75%.
	counts := [2]int{}
	for i := 0; i < 10000; i++ {
		counts[weightedPick(rng, []int{1, 4}, 4)]++
	}
	frac := float64(counts[1]) / 10000
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("weighted pick fraction %.3f, want ≈0.75", frac)
	}
}

func TestTwoTierGenerator(t *testing.T) {
	caps := TwoTier(xrand.New(15), 1000, 8, 64, 0.3)
	big := 0
	for _, c := range caps {
		switch c {
		case 8:
		case 64:
			big++
		default:
			t.Fatalf("unexpected capacity %d", c)
		}
	}
	if big < 220 || big > 380 {
		t.Fatalf("big fraction %d/1000, want ≈300", big)
	}
}

// TestBudgetsScheduleMatrixMatches: the capacity-aware protocol's
// fixed-seed output and probe accounting are identical under the serial
// reference, a fixed-width, and the fully parallel phase schedule
// (PhaseSerial/PhaseWorkers mirror core.Params; DESIGN.md §9, §12).
func TestBudgetsScheduleMatrixMatches(t *testing.T) {
	const n, d = 256, 16
	schedules := []struct {
		name         string
		phaseSerial  bool
		phaseWorkers int
	}{
		{"serial", true, 0},
		{"fixed3", false, 3},
		{"parallel", false, 0},
	}
	rng := xrand.New(21)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	caps := TwoTier(rng.Split(5), n, 16, 128, 0.5)
	var refOut []bitvec.Vector
	var refProbes []int64
	for _, sched := range schedules {
		w := world.New(in.Truth)
		pr := Scaled(n, caps)
		pr.MinD, pr.MaxD = d, d
		pr.PhaseSerial = sched.phaseSerial
		pr.PhaseWorkers = sched.phaseWorkers
		res := Run(w, rng.Split(2), pr)
		probes := make([]int64, n)
		for p := 0; p < n; p++ {
			probes[p] = w.Probes(p)
		}
		if refOut == nil {
			refOut = res.Output
			refProbes = probes
			continue
		}
		for p := 0; p < n; p++ {
			if !res.Output[p].Equal(refOut[p]) {
				t.Fatalf("output for player %d differs under %s", p, sched.name)
			}
			if probes[p] != refProbes[p] {
				t.Fatalf("probes for player %d differ under %s: %d vs %d",
					p, sched.name, probes[p], refProbes[p])
			}
		}
	}
}

// TestPropertyBudgetsProbeConservation mirrors core's conservation
// property for the capacity-weighted path: across random capacity mixes
// and schedules, every (player, object) pair charges exactly once — the
// counters are schedule-independent, capped at m, and the aggregates match.
func TestPropertyBudgetsProbeConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 96 + int(seed%2)*32
		const d = 16
		in := prefgen.DiameterClusters(rng.Split(1), n, n, n/8, d)
		caps := TwoTier(rng.Split(5), n, 8+int(seed%8), 64+int(seed%64), 0.25+float64(seed%2)/4)
		var refProbes []int64
		for _, sched := range []struct {
			phaseSerial  bool
			phaseWorkers int
		}{{true, 0}, {false, 3}, {false, 0}} {
			w := world.New(in.Truth)
			pr := Scaled(n, caps)
			pr.MinD, pr.MaxD = d, d
			pr.PhaseSerial = sched.phaseSerial
			pr.PhaseWorkers = sched.phaseWorkers
			Run(w, rng.Split(2), pr)
			var total, honestMax int64
			probes := make([]int64, n)
			for p := 0; p < n; p++ {
				probes[p] = w.Probes(p)
				if probes[p] < 0 || probes[p] > int64(n) {
					return false
				}
				total += probes[p]
				if w.IsHonest(p) && probes[p] > honestMax {
					honestMax = probes[p]
				}
			}
			if w.TotalProbes() != total || w.MaxHonestProbes() != honestMax {
				return false
			}
			if refProbes == nil {
				refProbes = probes
				continue
			}
			for p := 0; p < n; p++ {
				if probes[p] != refProbes[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestMajorityVectorShared pins the allocation contract of the workshare:
// every member of a cluster shares the cluster's one immutable majority
// vector (no per-member clones).
func TestMajorityVectorShared(t *testing.T) {
	const n, d = 256, 16
	rng := xrand.New(31)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	w := world.New(in.Truth)
	pr := Scaled(n, Uniform(n, 128))
	pr.MinD, pr.MaxD = d, d
	res := Run(w, rng.Split(2), pr)
	shared := 0
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			if bitvec.SameStorage(res.Output[p], res.Output[q]) {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two cluster members share a majority vector — the clone removal regressed")
	}
}

// TestNeighborIndexLSHMatchesExact pins the seam on the budgets path: on a
// planted two-tier world at the paper-regime threshold, the banding index
// yields the identical outputs, cluster counts and capacities, and probe
// charges as the exact oracle.
func TestNeighborIndexLSHMatchesExact(t *testing.T) {
	const n, d = 512, 16
	rng := xrand.New(6)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	caps := TwoTier(rng.Split(2), n, 32, 512, 0.25)

	run := func(spec cluster.IndexSpec) (*Result, *world.World) {
		w := world.New(in.Truth)
		pr := Scaled(n, caps)
		pr.MinD, pr.MaxD = d, d
		pr.NeighborIndex = spec
		return Run(w, xrand.New(6).Split(3), pr), w
	}
	ref, refW := run(cluster.IndexSpec{})
	got, gotW := run(cluster.IndexSpec{Kind: "lsh"})

	if got.NumClusters != ref.NumClusters {
		t.Fatalf("LSH formed %d clusters, exact %d", got.NumClusters, ref.NumClusters)
	}
	if len(got.ClusterCapacity) != len(ref.ClusterCapacity) {
		t.Fatalf("cluster capacity lists differ in length")
	}
	for j := range ref.ClusterCapacity {
		if got.ClusterCapacity[j] != ref.ClusterCapacity[j] {
			t.Fatalf("cluster %d capacity %d (lsh) vs %d (exact)", j, got.ClusterCapacity[j], ref.ClusterCapacity[j])
		}
	}
	for p := 0; p < n; p++ {
		if got.Output[p].Hamming(ref.Output[p]) != 0 {
			t.Fatalf("player %d output differs between LSH and exact", p)
		}
		if gotW.Probes(p) != refW.Probes(p) {
			t.Fatalf("player %d probes %d (lsh) vs %d (exact)", p, gotW.Probes(p), refW.Probes(p))
		}
	}
}

// TestNeighborIndexSparseMatchesDense pins the graph representation on the
// budgets path (DESIGN.md §16): the capacity-aware peel fed a sparse CSR
// graph yields the identical outputs, cluster counts and capacities, and
// probe charges as the dense bitset, for both exact and LSH discovery.
func TestNeighborIndexSparseMatchesDense(t *testing.T) {
	const n, d = 512, 16
	rng := xrand.New(6)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 64, d)
	caps := TwoTier(rng.Split(2), n, 32, 512, 0.25)

	run := func(spec cluster.IndexSpec) (*Result, *world.World) {
		w := world.New(in.Truth)
		pr := Scaled(n, caps)
		pr.MinD, pr.MaxD = d, d
		pr.NeighborIndex = spec
		return Run(w, xrand.New(6).Split(3), pr), w
	}
	for _, kind := range []string{"", "lsh"} {
		ref, refW := run(cluster.IndexSpec{Kind: kind, Graph: "dense"})
		got, gotW := run(cluster.IndexSpec{Kind: kind, Graph: "sparse"})

		if got.NumClusters != ref.NumClusters {
			t.Fatalf("kind=%q: sparse formed %d clusters, dense %d", kind, got.NumClusters, ref.NumClusters)
		}
		if len(got.ClusterCapacity) != len(ref.ClusterCapacity) {
			t.Fatalf("kind=%q: cluster capacity lists differ in length", kind)
		}
		for j := range ref.ClusterCapacity {
			if got.ClusterCapacity[j] != ref.ClusterCapacity[j] {
				t.Fatalf("kind=%q: cluster %d capacity %d (sparse) vs %d (dense)",
					kind, j, got.ClusterCapacity[j], ref.ClusterCapacity[j])
			}
		}
		for p := 0; p < n; p++ {
			if got.Output[p].Hamming(ref.Output[p]) != 0 {
				t.Fatalf("kind=%q: player %d output differs between representations", kind, p)
			}
			if gotW.Probes(p) != refW.Probes(p) {
				t.Fatalf("kind=%q: player %d probes %d (sparse) vs %d (dense)",
					kind, p, gotW.Probes(p), refW.Probes(p))
			}
		}
	}
}

// TestLSHScheduleMatrix: the budgets protocol with the banding index is
// byte-identical across phase schedules, like every other configuration.
func TestLSHScheduleMatrix(t *testing.T) {
	const n, d = 256, 16
	rng := xrand.New(8)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	caps := TwoTier(rng.Split(2), n, 16, 256, 0.3)

	var ref *Result
	for _, sched := range []struct {
		serial  bool
		workers int
	}{{true, 0}, {false, 0}, {false, 3}} {
		w := world.New(in.Truth)
		pr := Scaled(n, caps)
		pr.MinD, pr.MaxD = d, d
		pr.NeighborIndex = cluster.IndexSpec{Kind: "lsh", Bands: 12, Rows: 10}
		pr.PhaseSerial = sched.serial
		pr.PhaseWorkers = sched.workers
		res := Run(w, xrand.New(8).Split(3), pr)
		if ref == nil {
			ref = res
			continue
		}
		for p := 0; p < n; p++ {
			if res.Output[p].Hamming(ref.Output[p]) != 0 {
				t.Fatalf("schedule %+v: player %d output differs from serial", sched, p)
			}
		}
	}
}

// TestGuessRangeSelectsAccurateCandidate: over a range of diameter guesses
// around the planted one, every honest player's spot check must pick a
// candidate as accurate as a run pinned to the planted guess is required
// to be — the wrong guesses' candidates must not win.
func TestGuessRangeSelectsAccurateCandidate(t *testing.T) {
	const n, d = 256, 16
	rng := xrand.New(41)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, 32, d)
	w := world.New(in.Truth)
	pr := Scaled(n, Uniform(n, 128))
	pr.MinD, pr.MaxD = d/4, 4*d
	res := Run(w, rng.Split(2), pr)
	if es := metrics.Error(w, res.Output); es.Max > 2*d {
		t.Fatalf("max error %d > %d over guesses %d..%d", es.Max, 2*d, pr.MinD, pr.MaxD)
	}
}
