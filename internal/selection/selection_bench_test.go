package selection

import (
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/xrand"
)

// BenchmarkRSelect compares the serial bit-at-a-time duel loop (the
// test-file oracle, duelProbesSerial) against the word-block streaming
// path on full
// tournaments, over the shapes the protocol actually runs:
//
//   - final4096: the final whole-vector selection — identity mapping over a
//     large object set, simulation-scale probe budgets (Scaled), duels
//     dominated by the XOR walks both paths share.
//   - group512: the per-group Select regime at the paper's constants
//     (Defaults, budget ≈ 50) — a group-sized object set where most duel
//     cost is probe traffic, which the streaming path collapses 64 objects
//     per memo CAS.
//   - strided512x7: group512's shape through the general (non-identity)
//     object mapping, exercising the wordProber batching.
//
// Both paths draw identical coins and charge identical probes.
func BenchmarkRSelect(b *testing.B) {
	shapes := []struct {
		name string
		objs []int
		pr   Params
	}{
		{"final4096", identityObjs(4096), Scaled()},
		{"group512", identityObjs(512), Defaults()},
		{"strided512x7", stridedObjs(512, 7), Defaults()},
	}
	for _, sh := range shapes {
		worldM := sh.objs[len(sh.objs)-1] + 1
		w := buildWorld(19, 4096, worldM)
		truth := w.TruthVector(0).Gather(sh.objs)
		rng := xrand.New(23)
		m := len(sh.objs)
		// Candidate distances span the regimes: equal, below budget, and a
		// ramp of far candidates up to m/2 (a wrong-cluster vector).
		var cands []bitvec.Vector
		for _, flips := range []int{0, 3, m / 64, m / 10, m / 6, m / 4, m / 3, m / 2} {
			cands = append(cands, flipped(truth, rng.Split(uint64(flips)), flips))
		}
		budget := pairBudget(sh.pr.SampleFactor, w.N())
		b.Run(sh.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				knockout(cands, sh.pr.EliminateFrac, serialDuel(w, 0, sh.objs, xrand.New(55), budget))
			}
		})
		b.Run(sh.name+"/stream", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RSelect(w, 0, sh.objs, cands, xrand.New(55), sh.pr)
			}
		})
	}
}
