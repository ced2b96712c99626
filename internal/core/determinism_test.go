package core

import (
	"math/bits"
	"runtime"
	"testing"

	"collabscore/internal/adversary"
	"collabscore/internal/bitvec"
	"collabscore/internal/board"
	"collabscore/internal/cluster"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// byzWorld builds a planted instance with tolerance-many dishonest players,
// so the parallel path is exercised with adaptive (Pub-observing)
// adversaries, not just honest reporters.
func byzWorld(seed uint64, n, b int, corrupt bool) *world.World {
	rng := xrand.New(seed)
	in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, 4)
	w := world.New(in.Truth)
	if corrupt {
		pr := Scaled(n, b)
		perm := rng.Split(2).Perm(n)
		adversary.Corrupt(w, pr.MaxDishonest(n), perm, func(p int) world.Behavior {
			return adversary.Combined{Victim: (p + 1) % n, Seed: seed}
		})
	}
	return w
}

func equalOutputs(a, b []bitvec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if a[p].Hamming(b[p]) != 0 {
			return false
		}
	}
	return true
}

// schedule is one point of the schedule matrix the determinism tests
// sweep.
type schedule struct {
	name    string
	serial  bool // Params.PhaseSerial
	workers int  // Params.PhaseWorkers
}

// schedules is every schedule a run can take: the fully serial reference
// (repetitions and phases), a fixed phase width that forces real goroutine
// interleavings even on one core, and the default.
var schedules = []schedule{{"serial", true, 0}, {"fixed3", false, 3}, {"default", false, 0}}

// apply sets pr's schedule fields to sc.
func (sc schedule) apply(pr Params) Params {
	pr.PhaseSerial = sc.serial
	pr.PhaseWorkers = sc.workers
	return pr
}

// TestByzantineParallelMatchesSerial asserts that the default concurrent
// schedule (repetitions and phases) produces byte-identical output, leader
// tallies, and board traffic to the single-threaded reference schedule for
// fixed seeds — with and without Pub-observing adversaries, at small and
// medium n.
func TestByzantineParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{64, 512} {
		for _, corrupt := range []bool{false, true} {
			const b = 8
			seed := uint64(1000 + n)

			pr := Scaled(n, b)
			pr.ByzIterations = 8

			serial := pr
			serial.PhaseSerial = true
			refW := byzWorld(seed, n, b, corrupt)
			ref := RunByzantine(refW, xrand.New(seed).Split(11), nil, serial)

			gotW := byzWorld(seed, n, b, corrupt)
			got := RunByzantine(gotW, xrand.New(seed).Split(11), nil, pr)

			if !equalOutputs(ref.Output, got.Output) {
				t.Fatalf("n=%d corrupt=%v: parallel output differs from serial", n, corrupt)
			}
			if ref.HonestLeaders != got.HonestLeaders || ref.Repetitions != got.Repetitions {
				t.Fatalf("n=%d corrupt=%v: leaders %d/%d vs %d/%d", n, corrupt,
					got.HonestLeaders, got.Repetitions, ref.HonestLeaders, ref.Repetitions)
			}
			if ref.BoardWrites != got.BoardWrites || ref.BoardReads != got.BoardReads {
				t.Fatalf("n=%d corrupt=%v: board traffic %d/%d vs %d/%d", n, corrupt,
					got.BoardWrites, got.BoardReads, ref.BoardWrites, ref.BoardReads)
			}
			if len(ref.Reps) != len(got.Reps) {
				t.Fatalf("n=%d corrupt=%v: Reps length mismatch", n, corrupt)
			}
			for it := range ref.Reps {
				if ref.Reps[it].Leader != got.Reps[it].Leader ||
					ref.Reps[it].HonestLeader != got.Reps[it].HonestLeader {
					t.Fatalf("n=%d corrupt=%v rep %d: leader mismatch", n, corrupt, it)
				}
			}
			// Probe charging is per distinct (player, object) and therefore
			// schedule-independent too.
			for p := 0; p < n; p++ {
				if refW.Probes(p) != gotW.Probes(p) {
					t.Fatalf("n=%d corrupt=%v: player %d probes %d vs %d",
						n, corrupt, p, gotW.Probes(p), refW.Probes(p))
				}
			}
		}
	}
}

// TestPhaseParallelMatchesSerial asserts the phase-level determinism
// contract (DESIGN.md §9): with fixed seeds, running the intra-repetition
// phase loops concurrently produces byte-identical output, probe counts and
// board traffic to the single-threaded reference schedule
// (Params.PhaseSerial), with and without Pub-observing adversaries, at
// small and medium n.
func TestPhaseParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{64, 512} {
		for _, corrupt := range []bool{false, true} {
			const b = 8
			seed := uint64(2000 + n)

			pr := Scaled(n, b)
			serial := pr
			serial.PhaseSerial = true

			refW := byzWorld(seed, n, b, corrupt)
			ref := Run(refW, xrand.New(seed).Split(10), serial)

			gotW := byzWorld(seed, n, b, corrupt)
			got := Run(gotW, xrand.New(seed).Split(10), pr)

			if !equalOutputs(ref.Output, got.Output) {
				t.Fatalf("n=%d corrupt=%v: phase-parallel output differs from serial", n, corrupt)
			}
			if ref.BoardWrites != got.BoardWrites || ref.BoardReads != got.BoardReads {
				t.Fatalf("n=%d corrupt=%v: board traffic %d/%d vs %d/%d", n, corrupt,
					got.BoardWrites, got.BoardReads, ref.BoardWrites, ref.BoardReads)
			}
			if len(ref.Iterations) != len(got.Iterations) {
				t.Fatalf("n=%d corrupt=%v: iteration count differs", n, corrupt)
			}
			for gi := range ref.Iterations {
				ri, go_ := &ref.Iterations[gi], &got.Iterations[gi]
				if ri.SampleSize != go_.SampleSize || ri.NumClusters != go_.NumClusters ||
					ri.MinCluster != go_.MinCluster || ri.Unassigned != go_.Unassigned ||
					ri.BoardWrites != go_.BoardWrites || ri.BoardReads != go_.BoardReads {
					t.Fatalf("n=%d corrupt=%v: iteration %d stats differ", n, corrupt, gi)
				}
			}
			// The probe memo charges per distinct (player, object), so probe
			// complexity is schedule-independent too.
			for p := 0; p < n; p++ {
				if refW.Probes(p) != gotW.Probes(p) {
					t.Fatalf("n=%d corrupt=%v: player %d probes %d vs %d",
						n, corrupt, p, gotW.Probes(p), refW.Probes(p))
				}
			}
		}
	}
}

// TestScheduleMatrixMatches runs the full Byzantine wrapper under every
// schedule and requires byte-identical results: concurrent repetitions and
// phase loops, at any width, must compose without affecting any output.
func TestScheduleMatrixMatches(t *testing.T) {
	const n, b = 64, 8
	const seed = 77
	var ref *Result
	var refW *world.World
	for _, sc := range schedules {
		pr := Scaled(n, b)
		pr.ByzIterations = 6
		pr = sc.apply(pr)
		w := byzWorld(seed, n, b, true)
		res := RunByzantine(w, xrand.New(seed).Split(11), nil, pr)
		if ref == nil {
			ref, refW = res, w
			continue
		}
		if !equalOutputs(ref.Output, res.Output) {
			t.Fatalf("schedule %s: output differs from fully-serial reference", sc.name)
		}
		if ref.HonestLeaders != res.HonestLeaders || ref.BoardWrites != res.BoardWrites ||
			ref.BoardReads != res.BoardReads {
			t.Fatalf("schedule %s: counters differ from fully-serial reference", sc.name)
		}
		for p := 0; p < n; p++ {
			if refW.Probes(p) != w.Probes(p) {
				t.Fatalf("schedule %s: player %d probes differ", sc.name, p)
			}
		}
	}
}

// TestPhaseConcurrentSmall exercises the phase-parallel path — including
// the lock-free probe memo, the frozen board tally and the block-
// partitioned graph sweep — with real goroutine interleavings even on a
// single-core host, at a size small enough for the race detector to
// explore thoroughly (run under -race).
func TestPhaseConcurrentSmall(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	const n, b = 96, 8
	for seed := uint64(0); seed < 3; seed++ {
		w := byzWorld(seed, n, b, true)
		pr := Scaled(n, b)
		res := Run(w, xrand.New(seed).Split(5), pr)
		if len(res.Output) != n {
			t.Fatalf("seed %d: got %d outputs", seed, len(res.Output))
		}
	}
}

// TestByzantineRepStats pins the satellite bugfix: per-repetition stats are
// recorded for every repetition, and Result.Iterations matches the last
// honest-leader repetition (not a stale earlier one when the final leader
// is dishonest).
func TestByzantineRepStats(t *testing.T) {
	const n, b = 128, 8
	w := byzWorld(7, n, b, true)
	pr := Scaled(n, b)
	pr.ByzIterations = 8
	res := RunByzantine(w, xrand.New(7).Split(11), nil, pr)

	if len(res.Reps) != pr.ByzIterations {
		t.Fatalf("Reps records %d repetitions, want %d", len(res.Reps), pr.ByzIterations)
	}
	honest := 0
	var lastHonest *RepetitionStats
	for it := range res.Reps {
		st := &res.Reps[it]
		if st.HonestLeader != w.IsHonest(st.Leader) {
			t.Fatalf("rep %d: HonestLeader flag disagrees with leader %d", it, st.Leader)
		}
		if st.HonestLeader {
			honest++
			lastHonest = st
			if len(st.Iterations) == 0 {
				t.Fatalf("rep %d: honest-leader repetition recorded no iterations", it)
			}
		} else if len(st.Iterations) != 0 || st.BoardWrites != 0 {
			t.Fatalf("rep %d: dishonest-leader repetition recorded protocol stats", it)
		}
	}
	if honest != res.HonestLeaders {
		t.Fatalf("Reps counts %d honest leaders, Result says %d", honest, res.HonestLeaders)
	}
	if lastHonest != nil {
		if len(res.Iterations) != len(lastHonest.Iterations) ||
			(len(res.Iterations) > 0 && res.Iterations[0] != lastHonest.Iterations[0]) {
			t.Fatal("Result.Iterations does not match the last honest repetition")
		}
	}
}

// TestByzantineConcurrentSmall exercises the parallel path at a size small
// enough for the race detector to explore thoroughly (run under -race).
func TestByzantineConcurrentSmall(t *testing.T) {
	const n, b = 96, 8
	for seed := uint64(0); seed < 3; seed++ {
		w := byzWorld(seed, n, b, true)
		pr := Scaled(n, b)
		pr.ByzIterations = 8
		res := RunByzantine(w, xrand.New(seed).Split(3), nil, pr)
		if len(res.Output) != n {
			t.Fatalf("seed %d: got %d outputs", seed, len(res.Output))
		}
	}
}

// TestBulkProbeAccountingMatchesBitwise pins the probe-accounting half of
// the word-level data path (DESIGN.md §10): ProbeWord must charge exactly
// the per-player counts that bit-at-a-time Probe charges for the same
// cells, under concurrent fixed-width schedules with overlapping masks.
// The bitwise reference executes the same (player, word, mask) cells
// serially; distinct-(player, object) charging makes both totals equal to
// the number of distinct cells touched, regardless of schedule or overlap.
func TestBulkProbeAccountingMatchesBitwise(t *testing.T) {
	const n, b = 64, 8
	const seed = 4242
	bulkW := byzWorld(seed, n, b, false)
	bitW := byzWorld(seed, n, b, false)
	words := bulkW.ProbeWords()

	// A deterministic cell list with heavy overlap: every player touches
	// every word twice with different masks, plus a shared stripe.
	type cell struct {
		p, wi int
		mask  uint64
	}
	var cells []cell
	for p := 0; p < n; p++ {
		for wi := 0; wi < words; wi++ {
			h := uint64(p*31+wi)*0x9E3779B97F4A7C15 + 1
			cells = append(cells,
				cell{p, wi, h},
				cell{p, wi, h ^ 0xFFFF0000FFFF0000},
				cell{p % 8, wi, 0xF0F0F0F0F0F0F0F0}, // hot shared cells
			)
		}
	}

	for _, workers := range []int{2, 8} {
		bulkW.ResetProbes()
		bitW.ResetProbes()
		par.Fixed(workers).For(len(cells), func(i int) {
			c := cells[i]
			bulkW.ProbeWord(c.p, c.wi, c.mask)
		})
		for _, c := range cells {
			base := c.wi * 64
			for t := c.mask; t != 0; t &= t - 1 {
				o := base + bits.TrailingZeros64(t)
				if o < bitW.M() {
					bitW.Probe(c.p, o)
				}
			}
		}
		for p := 0; p < n; p++ {
			if bulkW.Probes(p) != bitW.Probes(p) {
				t.Fatalf("workers=%d: player %d charged %d (bulk, concurrent) vs %d (bitwise, serial)",
					workers, p, bulkW.Probes(p), bitW.Probes(p))
			}
		}
	}
}

// TestWorkShareSharesMajorityVector pins the no-clone satellite: every
// member of a cluster receives the *same* immutable majority vector (not a
// per-member copy), unassigned players share one zero vector, and distinct
// clusters do not alias each other.
func TestWorkShareSharesMajorityVector(t *testing.T) {
	const n, b = 96, 8
	const seed = 77
	w := byzWorld(seed, n, b, false)
	pr := Scaled(n, b)
	rc := world.NewRun(w)
	rc.Pub.Phase = "workshare"

	cl := &cluster.Clustering{
		Clusters: [][]int{
			{0, 1, 2, 3, 4, 5, 6, 7},
			{8, 9, 10, 11},
		},
	}
	bd := board.New(n, w.M())
	out := workShare(rc, bd, cl, xrand.New(seed).Split(0x5C), pr)

	for j, members := range cl.Clusters {
		for _, p := range members[1:] {
			if !bitvec.SameStorage(out[members[0]], out[p]) {
				t.Fatalf("cluster %d: members %d and %d do not share the majority vector", j, members[0], p)
			}
		}
	}
	if bitvec.SameStorage(out[0], out[8]) {
		t.Fatal("distinct clusters alias one majority vector")
	}
	if bitvec.SameStorage(out[0], out[12]) {
		t.Fatal("cluster majority aliases the unassigned default")
	}
	for p := 13; p < n; p++ {
		if !bitvec.SameStorage(out[12], out[p]) {
			t.Fatalf("unassigned players %d and %d do not share the zero vector", 12, p)
		}
	}
	if out[12].Count() != 0 {
		t.Fatal("unassigned default vector is not zero")
	}
	// The shared vector is the cluster's actual majority: recompute one
	// object's votes by hand from the members' truth (honest world: the
	// probers report truth, so the majority over any written object matches
	// the written values' majority; just sanity-check lengths and that some
	// cluster published something).
	if out[0].Len() != w.M() || out[8].Len() != w.M() {
		t.Fatal("majority vectors have wrong length")
	}
	if bd.WriteCount() == 0 {
		t.Fatal("workshare published nothing")
	}
}
