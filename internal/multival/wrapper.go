package multival

import (
	"collabscore/internal/analysis"
	"collabscore/internal/bitvec"
	"collabscore/internal/core"
	"collabscore/internal/election"
	"collabscore/internal/xrand"
)

// ByzResult extends Result with election bookkeeping.
//
// NumClusters/Ds (embedded from Result) follow the same convention as
// core.Result.Iterations: they hold the per-guess statistics of the LAST
// repetition that elected an honest leader, merged deterministically in
// repetition order, and stay empty when every elected leader was dishonest
// (those repetitions run no protocol under the worst-case model, so there
// are no clusters to count) — Reps always has the full per-repetition
// picture. Before PR 5 this was reported inconsistently: a last-writer-wins
// race under concurrent repetitions, and a silent zero when no leader was
// honest.
type ByzResult struct {
	Result
	// HonestLeaders counts repetitions whose elected leader was honest.
	HonestLeaders int
	// Repetitions is the number of leader-election repetitions executed.
	Repetitions int
	// Reps details each repetition in order: the elected leader, whether it
	// was honest, and — for honest-leader repetitions — one IterationStats
	// per diameter guess carrying D and NumClusters.
	Reps []core.RepetitionStats
}

// RunByzantine executes the §7-style wrapper over the non-binary protocol:
// repeat the generalized CalculatePreferences under Θ(log n) elected
// leaders (Feige's lightest-bin election works unchanged — it only needs
// to know who is honest) and select the best repetition per player by an
// L1 spot check. When a dishonest leader is elected, the repetition's
// shared coins are adversarial; as in the binary protocol we model the
// worst case by replacing the repetition's outputs with maximally wrong
// rating vectors (scale − truth).
//
// The election/repetition/selection skeleton is the one generic wrapper
// shared with the binary protocol (core.RunByzantineOver); this function
// only supplies the rating-domain pieces — the bit-sliced repetition
// runner, the mirrored worst case, and the L1 candidate-distance measure.
// Repetitions execute concurrently unless pr.PhaseSerial is set, with
// deterministic repetition-order merges either way.
func RunByzantine(w *World, trueRng *xrand.Stream, binStrategy election.BinStrategy, repetitions int, pr Params) *ByzResult {
	n, m := w.N(), w.M()
	if repetitions < 1 {
		repetitions = 1
	}
	res := &ByzResult{Repetitions: repetitions}
	lnn := analysis.Ln(n)

	outputs, reps := core.RunByzantineOver(w, trueRng, core.ByzProtocol[bitvec.Planes]{
		Repetitions: repetitions,
		Serial:      pr.PhaseSerial,
		Strategy:    binStrategy,
		Election:    election.Defaults(),
		RunRep: func(it int, shared *xrand.Stream, st *core.RepetitionStats) []bitvec.Planes {
			sub := Run(w, shared, pr)
			for gi, d := range sub.Ds {
				st.Iterations = append(st.Iterations, core.IterationStats{
					D: d, NumClusters: sub.NumClusters[gi],
				})
			}
			return sub.Output
		},
		Adversarial: func(int) []bitvec.Planes {
			// Adversarial coins: worst-case repetition outputs, maximally
			// wrong for every player — the bit-sliced broadcast scale −
			// truth (the rating analogue of the binary complement).
			worst := make([]bitvec.Planes, n)
			for p := 0; p < n; p++ {
				worst[p] = w.TruthMirror(p)
			}
			return worst
		},
		SelectFinal: func(rng *xrand.Stream, byRep [][]bitvec.Planes) []bitvec.Planes {
			// Per-player selection among repetitions by probed L1
			// disagreement; each player's coins split from the wrapper's
			// selection stream by player id (schedule-independent).
			out := make([]bitvec.Planes, n)
			zero := bitvec.NewPlanes(m, w.Bits())
			phaseExec(pr).For(n, func(p int) {
				if !w.IsHonest(p) {
					out[p] = zero
					return
				}
				if repetitions == 1 {
					out[p] = byRep[0][p]
					return
				}
				prng := rng.Split(uint64(p))
				check := prng.Sample(m, minInt(m, 8*int(lnn)))
				best, bestScore := 0, 1<<60
				for it := 0; it < repetitions; it++ {
					cand := byRep[it][p]
					score := 0
					for _, o := range check {
						truth := w.Probe(p, o)
						r := cand.Get(o)
						if r > truth {
							score += r - truth
						} else {
							score += truth - r
						}
					}
					if score < bestScore {
						best, bestScore = it, score
					}
				}
				out[p] = byRep[best][p]
			})
			return out
		},
	})

	res.Output = outputs
	res.Reps = reps
	// Deterministic merge in repetition order (the pre-PR5 wrapper kept
	// whichever honest repetition finished last and a silent zero when none
	// did; see ByzResult).
	for it := range reps {
		st := &reps[it]
		if !st.HonestLeader {
			continue
		}
		res.HonestLeaders++
		res.Ds = res.Ds[:0]
		res.NumClusters = res.NumClusters[:0]
		for _, is := range st.Iterations {
			res.Ds = append(res.Ds, is.D)
			res.NumClusters = append(res.NumClusters, is.NumClusters)
		}
	}
	return res
}
