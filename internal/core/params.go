// Package core implements CalculatePreferences (Figure 2), the paper's main
// contribution: a B-budget collaborative scoring protocol that is
// asymptotically optimal with respect to budget B and tolerates up to
// n/(3B) dishonest players (Theorem 14).
//
// The protocol guesses the correlation diameter D by doubling, and for each
// guess: draws a shared random sample set S of ~10·ln(n)/D of the objects,
// runs SmallRadius on S to estimate every player's preferences there,
// connects players whose sample estimates are close into a neighbor graph,
// peels clusters of size ≥ n/B, and shares the probing of all n objects
// within each cluster with Θ(log n)-fold redundancy and majority voting.
// A final RSelect picks the best diameter guess per player. The Byzantine
// wrapper (§7.1) repeats everything under Θ(log n) elected leaders and
// RSelects again, so at least one repetition used unbiased shared coins whp.
package core

import (
	"math"

	"collabscore/internal/analysis"
	"collabscore/internal/cluster"
	"collabscore/internal/election"
	"collabscore/internal/selection"
	"collabscore/internal/smallradius"
)

// Params carries every constant of CalculatePreferences. Paper returns the
// literal constants from the paper; Scaled returns simulation-friendly ones
// (the paper's polylog constants exceed n itself at laptop scale — see
// DESIGN.md §4 — so Scaled shrinks the multipliers while preserving every
// structural relationship between the constants).
type Params struct {
	// B is the budget parameter: the protocol targets the error achievable
	// by clusters of size ≥ n/B, using O(B·polylog n) probes per player.
	B int

	// SampleFactor f sets the sample inclusion probability f·ln(n)/D
	// (paper: 10, Lemma 6).
	SampleFactor float64
	// SampleDiamFactor g sets the diameter bound g·ln(n) passed to
	// SmallRadius on the sample set (paper: 20, Lemma 7). Structurally this
	// must be ≥ 2·SampleFactor so that close pairs stay under it whp.
	SampleDiamFactor float64
	// EdgeFactor e sets the neighbor-graph edge threshold e·ln(n)
	// (paper: 220, Lemma 8). Structurally it must exceed the close-pair
	// sample distance plus twice SmallRadius's error on the sample.
	EdgeFactor float64
	// RedundancyFactor r sets the number of probers assigned per object in
	// the work-sharing phase: ⌈r·ln n⌉ (paper: Θ(log n), Lemma 10). It must
	// be large enough for Chernoff majorities and, in the Byzantine case,
	// to out-vote the ≤1/3 dishonest cluster members (Lemma 13).
	RedundancyFactor float64

	// MinD and MaxD restrict the diameter-doubling loop to guesses
	// MinD ≤ D ≤ MaxD. Zero values mean the full paper range 1..n.
	// Experiments that know the planted diameter use this to isolate one
	// iteration.
	MinD, MaxD int

	// SmallDThreshold: guesses D < SmallDThreshold·ln(n) skip the sampling
	// machinery and run SmallRadius on the full object set (§6.1's easy
	// case; paper: 1).
	SmallDThreshold float64

	// ByzIterations is the number of leader-election + full-protocol
	// repetitions in the Byzantine wrapper (paper: Θ(log n)).
	ByzIterations int
	// PhaseSerial makes the whole run single-threaded: the Byzantine
	// repetitions execute one after another, and the protocol phases
	// inside each (the per-player, per-pair and per-object loops of
	// SmallRadius, ZeroRadius, graph building and work sharing) run on the
	// serial reference schedule. Repetitions are independent and merged in
	// order, and phase loops fan out on pre-split RNG streams with
	// index-ordered merges, so fixed-seed output is byte-identical to the
	// default concurrent schedule (DESIGN.md §9;
	// TestPhaseParallelMatchesSerial and TestByzantineParallelMatchesSerial
	// pin it).
	PhaseSerial bool
	// PhaseWorkers, when positive and PhaseSerial is unset, pins the phase
	// loops to exactly that many worker goroutines (par.Fixed) instead of
	// the GOMAXPROCS default. Race and property tests use it to force real
	// goroutine interleavings on single-core hosts; output is byte-identical
	// to every other schedule (DESIGN.md §9).
	PhaseWorkers int

	// NeighborIndex selects the neighbor-discovery implementation of the
	// clustering step (1.d): the zero value is the exact all-pairs sweep —
	// the reference oracle, byte-identical to the pre-seam behavior — and
	// Kind "lsh" switches to the banding index (cluster.LSH), which misses
	// a vanishing fraction of edges but never invents one. Like PhaseSerial
	// this is a pure execution knob at the parameter layer;
	// unlike them it may change output when non-default, which is why the
	// sweep grid treats it as a paired-comparison axis (same seeds, same
	// worlds, different index). Deterministic for a fixed seed and
	// schedule-independent either way (DESIGN.md §13).
	NeighborIndex cluster.IndexSpec

	// Mem, when non-nil, supplies pooled per-run allocations (the
	// workshare bulletin boards) to the protocol. Pooling changes where
	// storage comes from, never what is computed: fixed-seed output and
	// every counter are byte-identical with and without a Mem. The sweep
	// engine threads one Mem per worker so grid points reuse board storage
	// across simulations.
	Mem *Mem

	SR       smallradius.Params
	Sel      selection.Params
	Election election.Params
}

// Paper returns the constants exactly as stated in the paper.
func Paper(n, b int) Params {
	return Params{
		B:                b,
		SampleFactor:     10,
		SampleDiamFactor: 20,
		EdgeFactor:       220,
		RedundancyFactor: 3,
		SmallDThreshold:  1,
		ByzIterations:    int(math.Ceil(math.Log2(float64(n) + 2))),
		SR:               smallradius.Paper(n),
		Sel:              selection.Defaults(),
		Election:         election.Defaults(),
	}
}

// Scaled returns simulation-scale constants preserving the structural
// relationships: sample diameter = 2·sample factor, edge threshold =
// 2·(sample diameter) (close-pair distance plus SmallRadius slack), and
// modest redundancy.
func Scaled(n, b int) Params {
	p := Paper(n, b)
	p.SampleFactor = 1     // |S| = n·ln n/D; close pairs ≈ ln n apart on S
	p.SampleDiamFactor = 2 // ≈2× the expected close-pair sample distance
	p.EdgeFactor = 4       // ≥ close-pair distance + SmallRadius slack, ≪ cross-cluster distance
	p.RedundancyFactor = 1.5
	p.SmallDThreshold = 3 // below 3·ln n the sample would be most of the objects anyway
	p.ByzIterations = 5
	p.SR = smallradius.Scaled(n)
	p.Sel = selection.Scaled()
	return p
}

// SampleProb returns the per-object sample inclusion probability for
// diameter guess d.
func (pr Params) SampleProb(n, d int) float64 {
	p := pr.SampleFactor * analysis.Ln(n) / float64(d)
	if p > 1 {
		p = 1
	}
	return p
}

// SampleDiameter returns the diameter bound used on the sample set.
func (pr Params) SampleDiameter(n int) int {
	return int(math.Ceil(pr.SampleDiamFactor * analysis.Ln(n)))
}

// EdgeThreshold returns the neighbor-graph distance threshold.
func (pr Params) EdgeThreshold(n int) int {
	return int(math.Ceil(pr.EdgeFactor * analysis.Ln(n)))
}

// Redundancy returns the number of probers assigned per (cluster, object).
func (pr Params) Redundancy(n int) int {
	r := int(math.Ceil(pr.RedundancyFactor * analysis.Ln(n)))
	if r < 3 {
		r = 3
	}
	return r
}

// MinClusterSize returns the cluster size threshold used when peeling the
// neighbor graph. The promised cluster around each player has n/B members,
// but up to n/(3B) of them may be dishonest and refuse to look similar on
// the sample (§7.2), so the visible threshold is n/B − n/(3B) = 2n/(3B).
// Cluster diameter guarantees come from the edge threshold, not the size,
// and the workshare majority stays ≥2/3 honest exactly as Lemma 13 needs.
func (pr Params) MinClusterSize(n int) int { return analysis.VisibleClusterSize(n, pr.B) }

// DiameterGuesses returns the list of diameter guesses the doubling loop
// will try, honoring MinD/MaxD.
func (pr Params) DiameterGuesses(n int) []int {
	lo, hi := pr.MinD, pr.MaxD
	if lo <= 0 {
		lo = 1
	}
	if hi <= 0 {
		hi = n
	}
	var out []int
	for d := 1; d <= n; d *= 2 {
		if d >= lo && d <= hi {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{lo}
	}
	return out
}

// MaxDishonest returns the paper's dishonesty tolerance n/(3B) (§7.2).
func (pr Params) MaxDishonest(n int) int { return analysis.Tolerance(n, pr.B) }

// SeparableDiameter returns the largest planted diameter the sampling
// phase can separate at these constants, for clusters whose centers are
// random (≈ m/2 apart). A far pair at true distance m/2 − D lands at
// ≈ SampleFactor·ln(n)/D · (m/2 − D) on the sample, which must clear the
// EdgeFactor·ln(n) threshold:
//
//	m > 2·D·(EdgeFactor/SampleFactor + 1).
//
// The paper's version of this constraint is Lemma 8's requirement that
// non-neighbors be ≥ 84·D apart; beyond SeparableDiameter the clustering
// merges and the O(D) guarantee does not apply (experiment E8 shows the
// breakdown row). Callers sweeping planted diameters should stay below
// this bound with some margin.
func (pr Params) SeparableDiameter(m int) int {
	ratio := pr.EdgeFactor / pr.SampleFactor
	d := int(float64(m) / (2 * (ratio + 1)))
	if d < 1 {
		d = 1
	}
	return d
}
