// Package selection implements the candidate-vector selection protocols of
// Figure 1: RSelect (randomized, Theorem 3) and Select (the deterministic
// diameter-bounded variant used inside SmallRadius, Theorem 5).
//
// Both protocols run locally at one player p: given candidate preference
// vectors over some object set, p probes a few objects on which candidates
// disagree and eliminates candidates that lose the resulting votes. RSelect
// guarantees the output is within a constant factor of the best candidate's
// distance; Select additionally exploits a promised diameter bound D.
//
// Selection is deliberately the sequential tail of each player's work: a
// tournament's next duel depends on who survived the previous one (and on
// the coins the previous duel consumed), so its loops cannot fan out
// without changing which objects are probed. Callers parallelize one level
// up instead — SmallRadius and the final CalculatePreferences step run one
// independent Select/RSelect per player on the run's executor (DESIGN.md
// §9). Inside a duel the work is a word at a time and allocation-free
// (duelProbesStream, DESIGN.md §17 and §18): the differing positions come
// from XOR words, a sampled duel draws its Floyd ranks into a stack
// bitmap and maps each XOR word's slice of rank bits onto that word's set
// bits in one pass, and the selected objects leave as one bulk probe per
// world word. The bit-at-a-time loop the streaming duel is pinned against
// lives in the test files, which run the tournaments on it through their
// duelFunc parameter. Both functions take the read-only *world.World
// rather than a *world.Run because they only probe (a player's private
// act) and never publish protocol state.
package selection

import (
	"math"
	"math/bits"

	"collabscore/internal/bitvec"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Params holds the tunable constants of the selection protocols. The paper
// specifies Θ(log n) probes per candidate pair and a 2/3 elimination
// threshold; Defaults follows it.
type Params struct {
	// SampleFactor scales the per-pair probe budget of RSelect: each pair
	// probes ⌈SampleFactor · ln n⌉ randomly chosen differing objects.
	SampleFactor float64
	// SelectSampleFactor scales the per-duel probe budget of Select, which
	// runs a linear champion tournament and can therefore afford fewer
	// probes per duel.
	SelectSampleFactor float64
	// EliminateFrac is the agreement fraction above which the losing
	// candidate is eliminated in RSelect (paper: 2/3).
	EliminateFrac float64
	// KeepWithin (Select only): a challenger within KeepWithin·D of the
	// current champion is skipped — either is acceptable under the
	// diameter promise.
	KeepWithin int
}

// Defaults returns the paper's constants.
func Defaults() Params {
	return Params{SampleFactor: 6, SelectSampleFactor: 2, EliminateFrac: 2.0 / 3.0, KeepWithin: 4}
}

// Scaled returns simulation-scale budgets. Duels are cheap here because a
// player's probes are memoized (a duel can never cost more than the object
// set it runs over), so Scaled buys reliability with a larger per-duel
// budget and a tighter skip threshold instead of saving duel probes.
func Scaled() Params {
	return Params{SampleFactor: 1, SelectSampleFactor: 1.5, EliminateFrac: 2.0 / 3.0, KeepWithin: 1}
}

// pairBudget returns the number of probes used per candidate pair.
func pairBudget(factor float64, n int) int {
	k := int(math.Ceil(factor * math.Log(float64(n)+2)))
	if k < 4 {
		k = 4
	}
	return k
}

// RSelect runs the randomized tournament of Figure 1 for player p over the
// given candidates. Each candidate is a vector over objs (bit j of a
// candidate corresponds to global object objs[j]). The returned index
// identifies the surviving candidate; whp its distance to v(p) is O(d*),
// where d* is the distance of the best candidate (Theorem 3), using
// O(k²·log n) probes.
//
// RSelect returns -1 only if candidates is empty.
func RSelect(w *world.World, p int, objs []int, candidates []bitvec.Vector, rng *xrand.Stream, pr Params) int {
	if len(candidates) < 2 {
		return len(candidates) - 1 // -1 when empty, else the only candidate
	}
	ctx := duelCtx{w: w, p: p, objs: objs, ident: identObjs(objs)}
	budget := pairBudget(pr.SampleFactor, w.N())
	return knockout(candidates, pr.EliminateFrac, func(a, b bitvec.Vector) (int, int) {
		return duelProbesStream(&ctx, a, b, rng, budget)
	})
}

// duelFunc probes objects on which a and b differ and returns how many of
// them agreed with a, plus the number probed. The tournaments take it as a
// parameter so the test files can run them on the bit-at-a-time reference
// duel; production passes the streaming one.
type duelFunc func(a, b bitvec.Vector) (agreeA, total int)

// knockout is RSelect's all-pairs tournament over at least two candidates.
func knockout(candidates []bitvec.Vector, frac float64, probes duelFunc) int {
	k := len(candidates)
	alive := make([]bool, k)
	for i := range alive {
		alive[i] = true
	}
	for i := 0; i < k; i++ {
		if !alive[i] {
			continue
		}
		for j := i + 1; j < k; j++ {
			if !alive[j] || !alive[i] {
				continue
			}
			winner := duel(probes, candidates[i], candidates[j], frac)
			switch winner {
			case 0: // i wins, j eliminated
				alive[j] = false
			case 1: // j wins, i eliminated
				alive[i] = false
			}
		}
	}
	for i, a := range alive {
		if a {
			return i
		}
	}
	return 0 // unreachable: a duel never eliminates both
}

// duelCtx carries one tournament's duel state: the prober's identity and
// the object mapping (with its identity-ness precomputed once — an
// identity mapping lets the streaming path probe whole aligned words).
type duelCtx struct {
	w     *world.World
	p     int
	objs  []int
	ident bool
}

// identObjs reports whether objs is the identity mapping (objs[j] == j) —
// the common case at the final selection, where candidates span the whole
// object set in order.
func identObjs(objs []int) bool {
	for j, o := range objs {
		if o != j {
			return false
		}
	}
	return true
}

// duel runs one duel probe and returns 0 if b should be eliminated, 1 if a
// should be eliminated, -1 to keep both.
func duel(probes duelFunc, a, b bitvec.Vector, frac float64) int {
	agreeA, total := probes(a, b)
	if total == 0 {
		return -1
	}
	if float64(agreeA) >= frac*float64(total) {
		return 0
	}
	if float64(total-agreeA) >= frac*float64(total) {
		return 1
	}
	return -1
}

// maxPairBudget is the size of the on-stack rank buffer (int32 ranks: a
// rank is below the pair distance, itself below the candidate length).
// Budgets are Θ(log n), so real configurations fit (it would take
// n ≈ e^21 players to exceed it at the paper's SampleFactor 6); a
// configured budget beyond it is honored in full via a heap buffer rather
// than silently truncated.
const maxPairBudget = 128

// maxRankBitmap bounds the stack bitmap the streaming path draws Floyd's
// ranks into at every budget: when the pair distance fits, membership is a
// bit test and the ascending rank order is bit order, replacing the serial
// oracle's O(budget²) rescan and its insertion sort. Larger distances keep
// the oracle's bookkeeping (sortedFloydRanks). Either way each XOR word
// then maps its slice of rank bits onto its set bits in one pass
// (selectBits), replacing the oracle's restarted walk per rank.
const maxRankBitmap = 4096

// duelProbesStream is the word-block streaming duel (DESIGN.md §17): the
// same probed objects, coins, and charges as the bit-at-a-time reference
// in the test files, restructured so probes leave in 64-object blocks
// instead of one memo CAS per bit.
//
// The pass structure mirrors the serial oracle exactly — the word-parallel
// Hamming count that sizes the rank sample, then one early-exiting walk of
// the XOR words — but where the serial path fetches each selected position
// with its own Probe (an atomic memo update and a truth read per bit), the
// streaming walk accumulates every selected position of a word into a mask
// and fetches it with a single bulk ProbeWord: one CAS, one masked truth
// read, and one popcount compare for up to 64 objects. Sampled ranks are
// drawn into a stack bitmap (maxRankBitmap), and a word's selected
// positions come from one pass over the word's set bits (selectBits)
// rather than a restarted walk per rank. Identity object mappings (the
// final selection) map candidate words straight onto world words; general
// mappings batch runs of positions sharing a world word (wordProber).
// Probe charging is identical bit for bit: ProbeWord charges
// exactly the newly learned objects of its mask, and the mask is exactly
// the serial path's probe set. Coins are identical because the Floyd
// sample below is draw-for-draw the serial one and no other branch
// consumes randomness.
func duelProbesStream(ctx *duelCtx, a, b bitvec.Vector, rng *xrand.Stream, budget int) (agreeA, total int) {
	d := a.Hamming(b)
	if d == 0 {
		return 0, 0
	}
	w, p := ctx.w, ctx.p
	nw := a.Words()
	bp := wordProber{w: w, p: p, objs: ctx.objs, curW: -1}
	if d <= budget {
		// Probe every differing position, a word-block at a time.
		for wi := 0; wi < nw; wi++ {
			aw := a.Word(wi)
			x := aw ^ b.Word(wi)
			if x == 0 {
				continue
			}
			if ctx.ident {
				tw := w.ProbeWord(p, wi, x)
				agreeA += bits.OnesCount64(^(tw ^ aw) & x)
			} else {
				bp.addWord(wi, x, aw)
			}
		}
		bp.flush()
		return agreeA + bp.agree, d
	}
	// Floyd's sample of budget distinct ranks in [0,d) — draw-for-draw the
	// serial implementation's coins, so the chosen set is identical; only
	// the bookkeeping differs. When d fits the stack bitmap, membership is
	// a bit test and reading the bitmap's set bits yields the ranks in
	// ascending order, with no rescan and no sort. (Floyd's invariant makes
	// the fallback value j always fresh: earlier draws were bounded by
	// earlier, smaller j.)
	var buf [maxPairBudget]int32
	ranks := buf[:0]
	if d <= maxRankBitmap {
		var rb [maxRankBitmap / 64]uint64
		for j := d - budget; j < d; j++ {
			t := rng.Intn(j + 1)
			if rb[t>>6]>>(uint(t)&63)&1 == 1 {
				t = j
			}
			rb[t>>6] |= 1 << (uint(t) & 63)
		}
		for i := 0; i < (d+63)/64; i++ {
			for x := rb[i]; x != 0; x &= x - 1 {
				ranks = append(ranks, int32(i*64+bits.TrailingZeros64(x)))
			}
		}
	} else {
		ranks = sortedFloydRanks(rng, d, budget, ranks)
	}
	// Walk the XOR words once, as the serial path does. The set bits of
	// word wi hold ranks [seen, seen+c); a word without a sampled rank
	// costs one compare, and any other gathers its slice of rank bits,
	// which selectBits maps back onto positions in one pass, so the word's
	// probes leave as one bulk fetch.
	ri, seen := 0, 0
	for wi := 0; wi < nw && ri < len(ranks); wi++ {
		aw := a.Word(wi)
		x := aw ^ b.Word(wi)
		c := bits.OnesCount64(x)
		if int(ranks[ri])-seen >= c {
			seen += c
			continue
		}
		var r uint64
		for ; ri < len(ranks) && int(ranks[ri])-seen < c; ri++ {
			r |= 1 << uint(int(ranks[ri])-seen)
		}
		seen += c
		sel := selectBits(x, r)
		if ctx.ident {
			tw := w.ProbeWord(p, wi, sel)
			agreeA += bits.OnesCount64(^(tw ^ aw) & sel)
		} else {
			bp.addWord(wi, sel, aw)
		}
	}
	bp.flush()
	return agreeA + bp.agree, budget
}

// sortedFloydRanks is the serial oracle's rank bookkeeping, which the
// streaming path keeps for distances past the stack bitmap (d > 4096):
// Floyd's sample with a linear membership rescan, then an insertion sort
// into ascending order. The ranks are appended to buf; budgets beyond its capacity grow
// it on the heap and are honored in full.
func sortedFloydRanks(rng *xrand.Stream, d, budget int, buf []int32) []int32 {
	ranks := buf
	for j := d - budget; j < d; j++ {
		t := int32(rng.Intn(j + 1))
		for _, r := range ranks {
			if r == t {
				t = int32(j)
				break
			}
		}
		ranks = append(ranks, t)
	}
	for i := 1; i < len(ranks); i++ {
		for k := i; k > 0 && ranks[k] < ranks[k-1]; k-- {
			ranks[k], ranks[k-1] = ranks[k-1], ranks[k]
		}
	}
	return ranks
}

// selectBits returns the set bits of x whose ordinal among x's set bits
// (0 = lowest) is set in r, stepping through x's set bits once, up to the
// highest sampled ordinal. Dense rank slices (the budget a large share of
// the distance) take the step branch-free; sparse ones skip from rank to
// rank.
func selectBits(x, r uint64) uint64 {
	var mask uint64
	if 4*bits.OnesCount64(r) >= bits.Len64(r) {
		for ; r != 0; r >>= 1 {
			mask |= x & -x & -(r & 1)
			x &= x - 1
		}
		return mask
	}
	skipped := 0
	for ; r != 0; r &= r - 1 {
		for k := bits.TrailingZeros64(r); skipped < k; skipped++ {
			x &= x - 1
		}
		mask |= x & -x
	}
	return mask
}

// wordProber batches probes of a general (non-identity) object mapping:
// consecutive candidate positions whose objects share a 64-bit world word
// accumulate into one probe mask, alongside the mask of those objects on
// which candidate a holds a 1, and fetch with a single ProbeWord whose
// agreements with a are one popcount. The prober is a few words on the
// caller's stack, so the duel inner loop allocates nothing
// (TestDuelStreamAllocFree).
type wordProber struct {
	w     *world.World
	p     int
	objs  []int
	curW  int
	mask  uint64 // staged objects of world word curW
	amask uint64 // the staged objects where a has a 1
	agree int
}

// addWord stages every candidate position whose bit is set in sel within
// candidate word wi (words ascending across calls); aw is a's word wi.
func (bp *wordProber) addWord(wi int, sel, aw uint64) {
	for ; sel != 0; sel &= sel - 1 {
		k := uint(bits.TrailingZeros64(sel))
		o := bp.objs[wi*64+int(k)]
		bit := uint64(1) << (uint(o) & 63)
		// A repeated object starts a new batch, so it counts once per
		// position exactly as bit-at-a-time probing does.
		if o>>6 != bp.curW || bp.mask&bit != 0 {
			bp.flush()
			bp.curW = o >> 6
		}
		bp.mask |= bit
		bp.amask |= bit & -(aw >> k & 1)
	}
}

// flush probes the staged word in bulk and tallies agreements with a.
func (bp *wordProber) flush() {
	if bp.mask == 0 {
		return
	}
	tw := bp.w.ProbeWord(bp.p, bp.curW, bp.mask)
	bp.agree += bits.OnesCount64(^(tw ^ bp.amask) & bp.mask)
	bp.mask, bp.amask = 0, 0
}

// Select is the diameter-bounded selection protocol used by SmallRadius:
// given the promise that at least one candidate is within distance d of
// v(p), it returns the index of a candidate within O(d) of v(p), whp.
//
// It runs a linear champion tournament rather than the full pairwise
// tournament of RSelect: challengers within KeepWithin·d of the champion
// are skipped (either is acceptable under the promise), and far challengers
// duel the champion by majority over a small probe sample. The best
// candidate w* wins every far duel whp, so the final champion is w* or a
// candidate within KeepWithin·d of it — within (KeepWithin+1)·d of v(p).
// Probes: O(k·log n) instead of O(k²·log n), which is what lets SmallRadius
// afford a Select per object group. (The paper leaves Select's pseudocode
// to [2]; this variant satisfies the same contract.)
//
// Select returns -1 only if candidates is empty.
func Select(w *world.World, p int, objs []int, candidates []bitvec.Vector, d int, rng *xrand.Stream, pr Params) int {
	if len(candidates) < 2 {
		return len(candidates) - 1 // -1 when empty, else the only candidate
	}
	ctx := duelCtx{w: w, p: p, objs: objs, ident: identObjs(objs)}
	budget := pairBudget(pr.SelectSampleFactor, w.N())
	return champion(candidates, pr.KeepWithin*max(d, 1), func(a, b bitvec.Vector) (int, int) {
		return duelProbesStream(&ctx, a, b, rng, budget)
	})
}

// champion is Select's linear champion tournament over at least two
// candidates: challengers within near of the champion are skipped.
func champion(candidates []bitvec.Vector, near int, probes duelFunc) int {
	champ := 0
	for i := 1; i < len(candidates); i++ {
		if candidates[champ].Hamming(candidates[i]) <= near {
			continue // equally acceptable; keep the incumbent
		}
		if duelMajority(probes, candidates[champ], candidates[i]) == 1 {
			champ = i
		}
	}
	return champ
}

// duelMajority runs one duel probe and returns 0 if a wins the majority,
// 1 if b does (ties to the incumbent a).
func duelMajority(probes duelFunc, a, b bitvec.Vector) int {
	agreeA, total := probes(a, b)
	if total == 0 {
		return 0
	}
	if 2*agreeA >= total {
		return 0
	}
	return 1
}
