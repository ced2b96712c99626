package core

import (
	"testing"

	"collabscore/internal/cluster"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// lshParams returns Scaled params with the banding index selected and the
// doubling loop pinned to the planted diameter of byzWorld (paper-regime
// configuration: the sample is dense and the edge threshold is far below
// cross-cluster distances, where the recall argument of DESIGN.md §13
// applies).
func lshParams(n, b int) Params {
	pr := Scaled(n, b)
	pr.MinD, pr.MaxD = 4, 4
	pr.NeighborIndex = cluster.IndexSpec{Kind: "lsh"}
	return pr
}

// TestNeighborIndexLSHMatchesExact is the end-to-end equivalence pin: on
// planted worlds at the paper-regime threshold, running the full protocol
// with the LSH index produces the identical outputs, probe counts, and
// per-iteration clustering stats as the exact oracle — with and without
// adaptive adversaries.
func TestNeighborIndexLSHMatchesExact(t *testing.T) {
	for _, n := range []int{256, 512} {
		for _, corrupt := range []bool{false, true} {
			const b = 8
			seed := uint64(3000 + n)

			exact := lshParams(n, b)
			exact.NeighborIndex = cluster.IndexSpec{}
			refW := byzWorld(seed, n, b, corrupt)
			ref := Run(refW, xrand.New(seed).Split(10), exact)

			gotW := byzWorld(seed, n, b, corrupt)
			got := Run(gotW, xrand.New(seed).Split(10), lshParams(n, b))

			if !equalOutputs(ref.Output, got.Output) {
				t.Fatalf("n=%d corrupt=%v: LSH output differs from exact oracle", n, corrupt)
			}
			if len(ref.Iterations) != len(got.Iterations) {
				t.Fatalf("n=%d corrupt=%v: iteration count differs", n, corrupt)
			}
			for gi := range ref.Iterations {
				ri, li := &ref.Iterations[gi], &got.Iterations[gi]
				if ri.NumClusters != li.NumClusters || ri.MinCluster != li.MinCluster ||
					ri.Unassigned != li.Unassigned || ri.SampleSize != li.SampleSize {
					t.Fatalf("n=%d corrupt=%v: iteration %d clustering stats differ (exact %+v, lsh %+v)",
						n, corrupt, gi, ri, li)
				}
			}
			for p := 0; p < n; p++ {
				if refW.Probes(p) != gotW.Probes(p) {
					t.Fatalf("n=%d corrupt=%v: player %d probes %d (exact) vs %d (lsh)",
						n, corrupt, p, refW.Probes(p), gotW.Probes(p))
				}
			}
		}
	}
}

// TestNeighborIndexSparseMatchesDense is the graph-representation pin at
// the protocol layer (DESIGN.md §16): running step 1.d with the neighbor
// graph forced dense and forced sparse — under both exact and LSH
// discovery — produces identical outputs, probe counts, and per-iteration
// clustering stats. The representation is observationally invisible; only
// its memory differs.
func TestNeighborIndexSparseMatchesDense(t *testing.T) {
	const n, b = 256, 8
	for _, kind := range []string{"", "lsh"} {
		for _, corrupt := range []bool{false, true} {
			seed := uint64(4000 + n)

			dense := lshParams(n, b)
			dense.NeighborIndex = cluster.IndexSpec{Kind: kind, Graph: "dense"}
			refW := byzWorld(seed, n, b, corrupt)
			ref := Run(refW, xrand.New(seed).Split(10), dense)

			sparse := lshParams(n, b)
			sparse.NeighborIndex = cluster.IndexSpec{Kind: kind, Graph: "sparse"}
			gotW := byzWorld(seed, n, b, corrupt)
			got := Run(gotW, xrand.New(seed).Split(10), sparse)

			if !equalOutputs(ref.Output, got.Output) {
				t.Fatalf("kind=%q corrupt=%v: sparse output differs from dense", kind, corrupt)
			}
			if len(ref.Iterations) != len(got.Iterations) {
				t.Fatalf("kind=%q corrupt=%v: iteration count differs", kind, corrupt)
			}
			for gi := range ref.Iterations {
				ri, si := &ref.Iterations[gi], &got.Iterations[gi]
				if ri.NumClusters != si.NumClusters || ri.MinCluster != si.MinCluster ||
					ri.Unassigned != si.Unassigned || ri.SampleSize != si.SampleSize {
					t.Fatalf("kind=%q corrupt=%v: iteration %d clustering stats differ (dense %+v, sparse %+v)",
						kind, corrupt, gi, ri, si)
				}
			}
			for p := 0; p < n; p++ {
				if refW.Probes(p) != gotW.Probes(p) {
					t.Fatalf("kind=%q corrupt=%v: player %d probes %d (dense) vs %d (sparse)",
						kind, corrupt, p, refW.Probes(p), gotW.Probes(p))
				}
			}
		}
	}
}

// TestLSHScheduleMatrixMatches gives the LSH path the same schedule-matrix
// treatment as the default path: the full Byzantine wrapper under every
// schedule must produce byte-identical results with the banding index
// selected.
func TestLSHScheduleMatrixMatches(t *testing.T) {
	const n, b = 128, 8
	const seed = 177
	var ref *Result
	var refW *world.World
	for _, sc := range schedules {
		pr := lshParams(n, b)
		pr.ByzIterations = 6
		pr = sc.apply(pr)
		w := byzWorld(seed, n, b, true)
		res := RunByzantine(w, xrand.New(seed).Split(11), nil, pr)
		if ref == nil {
			ref, refW = res, w
			continue
		}
		if !equalOutputs(ref.Output, res.Output) {
			t.Fatalf("schedule %s: LSH output differs from fully-serial reference", sc.name)
		}
		if ref.HonestLeaders != res.HonestLeaders || ref.BoardWrites != res.BoardWrites ||
			ref.BoardReads != res.BoardReads {
			t.Fatalf("schedule %s: LSH counters differ from fully-serial reference", sc.name)
		}
		for p := 0; p < n; p++ {
			if refW.Probes(p) != w.Probes(p) {
				t.Fatalf("schedule %s: player %d probes differ", sc.name, p)
			}
		}
	}
}

// TestLSHPhaseWorkersMatch: pinned fixed-width phase pools (the
// single-core-host escape hatch) produce the same LSH-path output as the
// serial and parallel schedules.
func TestLSHPhaseWorkersMatch(t *testing.T) {
	const n, b = 128, 8
	const seed = 91
	serial := lshParams(n, b)
	serial.PhaseSerial = true
	refW := byzWorld(seed, n, b, true)
	ref := Run(refW, xrand.New(seed).Split(10), serial)
	for _, workers := range []int{2, 5} {
		pr := lshParams(n, b)
		pr.PhaseWorkers = workers
		w := byzWorld(seed, n, b, true)
		got := Run(w, xrand.New(seed).Split(10), pr)
		if !equalOutputs(ref.Output, got.Output) {
			t.Fatalf("PhaseWorkers=%d: LSH output differs from serial", workers)
		}
	}
}
