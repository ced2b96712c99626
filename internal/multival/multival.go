// Package multival implements the §8 extension of the paper: collaborative
// scoring with non-binary preferences. Players rate objects on a numeric
// scale 0..R instead of like/dislike, and similarity is measured with the
// L1 metric instead of Hamming distance.
//
// The paper conjectures that "the basic idea of using sampling to cluster
// players does not rely on these particular assumptions" (binary values,
// Hamming distance). This package realizes that claim with the natural
// generalization of CalculatePreferences:
//
//  1. draw a shared random sample set S of Θ(ln n · scale/D) of the objects;
//  2. every player probes S directly and publishes its ratings;
//  3. players whose published sample ratings are L1-close become neighbors,
//     and clusters of ≥ n/B − n/(3B) players are peeled greedily;
//  4. the probing of all m objects is shared within each cluster with
//     Θ(log n)-fold redundancy, aggregated by MEDIAN — the median of
//     Θ(log n) reports from a ≥2/3-honest cluster is within the honest
//     rating spread even under adversarial manipulation (the rank
//     statistics version of the majority argument in Lemma 13).
//
// Probing the sample directly (instead of the binary SmallRadius recursion)
// costs |S| probes per player; the binary machinery's probe savings rely on
// exact-agreement vote counting, which does not transfer to dense rating
// scales. The cluster work-sharing savings — the dominant term — transfer
// unchanged.
//
// Since PR 5 the package runs on the same vectorized engine as the binary
// protocol (DESIGN.md §12): rating rows are bit-sliced into
// ⌈log₂(scale+1)⌉ bit-planes (bitvec.Planes) so L1 distances are word-level
// plane arithmetic, the probe memo is a lock-free CAS bitset
// (bitvec.Atomic) with bulk whole-word charging, phase loops fan out on
// par.Runner schedules gated by Params.PhaseSerial/PhaseWorkers, and the
// median work-share runs over (cluster, word-block) cells with per-worker
// scratch arenas. Shared coins are split per (cluster, object) exactly as
// before the vectorization, so fixed-seed outputs are identical under every
// schedule.
package multival

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"collabscore/internal/analysis"
	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/metrics"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

// Ratings is a plain integer rating row in [0, Scale] — the scalar
// reference representation. The engine itself computes on bit-sliced
// bitvec.Planes; Ratings remains the public-API materialization and the
// per-element reference the vectorized L1 is tested against.
type Ratings []int

// L1 returns the L1 distance Σ|a_i − b_i|. It panics on length mismatch.
func (a Ratings) L1(b Ratings) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("multival: length mismatch %d vs %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

// Clone returns a deep copy.
func (a Ratings) Clone() Ratings {
	out := make(Ratings, len(a))
	copy(out, a)
	return out
}

// Gather extracts the ratings at the given positions.
func (a Ratings) Gather(idx []int) Ratings {
	out := make(Ratings, len(idx))
	for j, i := range idx {
		out[j] = a[i]
	}
	return out
}

// Median returns the lower median of xs (xs is modified by sorting). It is
// the scalar reference of the counting median the work-share phase uses.
func Median(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	sort.Ints(xs)
	return xs[(len(xs)-1)/2]
}

// Behavior decides what rating a player reports for an object.
// Implementations must be deterministic per (player, object) and safe for
// concurrent use: the vectorized engine may ask through bulk word-level
// paths, per-object paths, or concurrent phase goroutines, and all must
// agree (the determinism contract of internal/adversary, tested by this
// package's contract meta-test).
type Behavior interface {
	// Report returns the rating player p publishes for object o.
	Report(w *World, p, o int) int
}

// Honest probes and reports the true rating.
type Honest struct{}

// Report probes object o and returns the truth.
func (Honest) Report(w *World, p, o int) int { return w.Probe(p, o) }

// World is the rating-scale game substrate: hidden bit-sliced rating
// matrix, lock-free probe accounting, pluggable behaviors. It mirrors
// world.World for the non-binary setting: truth rows are bitvec.Planes
// (⌈log₂(scale+1)⌉ bit-planes over the object set), the probe memo is a
// CAS bitset charging each (player, object) pair exactly once under any
// schedule, and ProbePlaneWords is the bulk whole-word probe.
type World struct {
	n, m, words int
	scale       int
	k           int // bit-planes per rating, PlaneBits(scale)
	// src is the pluggable truth representation (DESIGN.md §14); truth is
	// the dense fast path, aliasing src's rows when src is *DensePlanes and
	// nil for lazy sources.
	src       RatingSource
	truth     []bitvec.Planes
	tailMask  uint64
	honest    []bool
	behaviors []Behavior
	probes    []atomic.Int64
	// known is the per-player probe memo, installed on a player's first
	// probe (memo) rather than at construction — mirroring world.World, so
	// lazy rating worlds stay O(centers + edits) until probed.
	known []atomic.Pointer[bitvec.Atomic]
}

// NewWorld builds a rating world from a bit-sliced truth matrix with
// ratings in [0, scale]. Rows must have PlaneBits(scale) planes (as
// Generate produces).
func NewWorld(truth []bitvec.Planes, scale int) *World {
	return NewWorldFrom(NewDensePlanes(truth), scale)
}

// NewWorldFrom builds a rating world over any rating source — the
// materialized DensePlanes wrapper (NewWorld) or a lazy on-demand source.
func NewWorldFrom(src RatingSource, scale int) *World {
	if src.Players() == 0 {
		panic("multival: no players")
	}
	if scale < 1 {
		panic("multival: scale must be ≥ 1")
	}
	n, m := src.Players(), src.Objects()
	w := &World{
		n:         n,
		m:         m,
		words:     (m + 63) / 64,
		scale:     scale,
		k:         bitvec.PlaneBits(scale),
		src:       src,
		truth:     densePlaneRows(src),
		tailMask:  planesTailMask(m),
		honest:    make([]bool, n),
		behaviors: make([]Behavior, n),
		probes:    make([]atomic.Int64, n),
		known:     make([]atomic.Pointer[bitvec.Atomic], n),
	}
	w.checkRows()
	for p := range w.honest {
		w.honest[p] = true
		w.behaviors[p] = Honest{}
	}
	return w
}

// Renew re-initializes a world for a new truth matrix and scale, reusing
// w's allocations (role slices, probe counters, probe memos) when the
// player/object shape matches; a nil w or a shape change falls back to
// NewWorld. All players start honest and all counters start at zero,
// exactly as NewWorld leaves them, so a renewed world is observationally
// identical to a fresh one — it is the pooled constructor the sweep
// engine's rating arenas use (DESIGN.md §12). The previous truth matrix
// and any outstanding references to the old world must no longer be in use.
func Renew(w *World, truth []bitvec.Planes, scale int) *World {
	return RenewFrom(w, NewDensePlanes(truth), scale)
}

// RenewFrom is Renew over any rating source; see Renew and NewWorldFrom.
func RenewFrom(w *World, src RatingSource, scale int) *World {
	if w == nil || src.Players() != w.n || src.Players() == 0 || src.Objects() != w.m || scale < 1 {
		return NewWorldFrom(src, scale)
	}
	w.src = src
	w.truth = densePlaneRows(src)
	w.scale = scale
	w.k = bitvec.PlaneBits(scale)
	w.checkRows()
	for p := range w.honest {
		w.honest[p] = true
		w.behaviors[p] = Honest{}
	}
	w.ResetProbes()
	return w
}

// densePlaneRows returns the fast-path rows of a dense source, nil for any
// other source.
func densePlaneRows(src RatingSource) []bitvec.Planes {
	if d, ok := src.(*DensePlanes); ok {
		return d.Rows()
	}
	return nil
}

// planesTailMask returns the valid-bit mask of the last word of an m-object
// plane.
func planesTailMask(m int) uint64 {
	if r := m % 64; r != 0 {
		return (1 << uint(r)) - 1
	}
	return ^uint64(0)
}

func (w *World) checkRows() {
	if w.truth == nil {
		if w.src.Bits() != w.k {
			panic(fmt.Sprintf("multival: truth source has %d planes, want %d", w.src.Bits(), w.k))
		}
		return
	}
	for p, row := range w.truth {
		if row.Len() != w.m || row.Bits() != w.k {
			panic(fmt.Sprintf("multival: truth row %d has shape %d×%d, want %d×%d",
				p, row.Len(), row.Bits(), w.m, w.k))
		}
	}
}

// N returns the number of players; M the number of objects; Scale the
// rating scale; Bits the number of bit-planes per rating.
func (w *World) N() int     { return w.n }
func (w *World) M() int     { return w.m }
func (w *World) Scale() int { return w.scale }
func (w *World) Bits() int  { return w.k }

// ProbeWords returns the number of 64-bit words spanning the object set:
// the word index range valid for ProbePlaneWords. Object o lives in word
// o/64, bit o%64 of every plane.
func (w *World) ProbeWords() int { return (w.m + 63) / 64 }

// memo returns player p's probe memo, installing it on first use (the CAS
// race is settled exactly as in world.World.memo).
func (w *World) memo(p int) *bitvec.Atomic {
	if k := w.known[p].Load(); k != nil {
		return k
	}
	fresh := bitvec.NewAtomic(w.m)
	if w.known[p].CompareAndSwap(nil, &fresh) {
		return &fresh
	}
	return w.known[p].Load()
}

// chargeWord marks every bit of mask probed in object word wi and charges
// the newly learned bits — one CAS and one atomic add for up to 64
// (player, object) pairs, with per-pair exactly-once charging under any
// schedule (the memo's CAS settles races).
func (w *World) chargeWord(p, wi int, mask uint64) {
	if nb := w.memo(p).OrWord(wi, mask); nb != 0 {
		w.probes[p].Add(int64(bits.OnesCount64(nb)))
	}
}

// wordMask returns the valid-bit mask for object word wi, panicking on an
// out-of-range index like bitvec.Planes.WordMask does — representation-
// independent, so dense and lazy worlds fail identically.
func (w *World) wordMask(wi int) uint64 {
	if wi < 0 || wi >= w.words {
		panic(fmt.Sprintf("bitvec: word %d out of range [0,%d)", wi, w.words))
	}
	if wi == w.words-1 {
		return w.tailMask
	}
	return ^uint64(0)
}

// Probe returns the true rating and charges a probe for the first visit.
// It is safe and lock-free under concurrent use: the memo's CAS ensures
// exactly one caller charges each (player, object) pair, so probe counters
// are schedule-independent.
func (w *World) Probe(p, o int) int {
	if !w.memo(p).TestAndSet(o) {
		w.probes[p].Add(1)
	}
	if w.truth != nil {
		return w.truth[p].Get(o)
	}
	return w.src.Rating(p, o)
}

// ProbePlaneWords probes, as player p, every object whose bit is set in
// mask within object word wi, and writes the true rating bits for exactly
// those objects into dst (one word per plane, aligned with mask; dst must
// have Bits() entries). Bits of mask past the last object are ignored.
// Charging is identical to per-object Probe calls on the mask's objects.
func (w *World) ProbePlaneWords(p, wi int, mask uint64, dst []uint64) {
	mask &= w.wordMask(wi)
	w.chargeWord(p, wi, mask)
	if w.truth != nil {
		row := w.truth[p]
		for l := 0; l < w.k; l++ {
			dst[l] = row.PlaneWord(l, wi) & mask
		}
		return
	}
	w.src.PlaneWords(p, wi, dst[:w.k])
	for l := 0; l < w.k; l++ {
		dst[l] &= mask
	}
}

// ProbeValues probes, as player p, every object in objs and returns the
// true ratings bit-sliced and indexed like objs. Runs of objects sharing a
// 64-bit word — the common case, since protocol object lists are sorted —
// collapse into single whole-word memo updates, and the only allocation is
// the returned Planes. Probe charging is identical to calling Probe per
// object.
func (w *World) ProbeValues(p int, objs []int) bitvec.Planes {
	curW := -1
	var curMask uint64
	for _, o := range objs {
		if o < 0 || o >= w.m {
			panic(fmt.Sprintf("multival: object %d out of range [0,%d)", o, w.m))
		}
		wi := o / 64
		if wi != curW {
			if curMask != 0 {
				w.chargeWord(p, curW, curMask)
			}
			curW, curMask = wi, 0
		}
		curMask |= 1 << (uint(o) % 64)
	}
	if curMask != 0 {
		w.chargeWord(p, curW, curMask)
	}
	if w.truth != nil {
		return w.truth[p].Gather(objs)
	}
	out := bitvec.NewPlanes(len(objs), w.k)
	for j, o := range objs {
		out.Set(j, w.src.Rating(p, o))
	}
	return out
}

// PeekTruth returns the true rating without accounting (adversary and
// measurement use).
func (w *World) PeekTruth(p, o int) int {
	if w.truth != nil {
		return w.truth[p].Get(o)
	}
	return w.src.Rating(p, o)
}

// truthRow returns p's bit-sliced truth row, materializing it for lazy
// sources (measurement paths only).
func (w *World) truthRow(p int) bitvec.Planes {
	if w.truth != nil {
		return w.truth[p]
	}
	return materializeRow(w.src, p)
}

// TruthRow returns a copy of p's true ratings as a scalar row
// (measurement use only).
func (w *World) TruthRow(p int) Ratings { return Ratings(w.truthRow(p).Ints()) }

// TruthMirror returns scale − truth for player p, word-parallel — the §7
// worst-case repetition output (adversary and measurement use; no probe
// accounting).
func (w *World) TruthMirror(p int) bitvec.Planes { return w.truthRow(p).SubFrom(w.scale) }

// Probes returns the probe count of player p.
func (w *World) Probes(p int) int64 { return w.probes[p].Load() }

// MaxHonestProbes returns the probe complexity measure: the worst probe
// count over honest players.
func (w *World) MaxHonestProbes() int64 {
	var mx int64
	for p := 0; p < w.n; p++ {
		if w.honest[p] {
			if c := w.probes[p].Load(); c > mx {
				mx = c
			}
		}
	}
	return mx
}

// MeanHonestProbes returns the average probe count over honest players.
func (w *World) MeanHonestProbes() float64 {
	var total int64
	cnt := 0
	for p := 0; p < w.n; p++ {
		if w.honest[p] {
			total += w.probes[p].Load()
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(total) / float64(cnt)
}

// TotalProbes returns the total probes charged across all players.
func (w *World) TotalProbes() int64 {
	var t int64
	for p := range w.probes {
		t += w.probes[p].Load()
	}
	return t
}

// ResetProbes zeroes all probe counters and forgets all memoized probes.
// It must not run concurrently with Probe calls (a between-runs operation).
func (w *World) ResetProbes() {
	for p := range w.probes {
		w.probes[p].Store(0)
		if k := w.known[p].Load(); k != nil {
			k.Reset() // keep the allocation for pooled reuse
		}
	}
}

// SetBehavior installs a behavior; non-Honest behaviors mark the player
// dishonest.
func (w *World) SetBehavior(p int, b Behavior) {
	w.behaviors[p] = b
	_, isHonest := b.(Honest)
	w.honest[p] = isHonest
}

// IsHonest reports whether p follows the protocol.
func (w *World) IsHonest(p int) bool { return w.honest[p] }

// Report asks p's behavior for its published rating of o.
func (w *World) Report(p, o int) int { return w.behaviors[p].Report(w, p, o) }

// ReportValues returns player p's reports for the given objects,
// bit-sliced and indexed like objs. Honest players ride the bulk probe
// path (ProbeValues, identical charging to per-object probes); dishonest
// players are asked per object through their behavior, with out-of-scale
// reports clamped — the bulletin board validates writes.
func (w *World) ReportValues(p int, objs []int) bitvec.Planes {
	if w.honest[p] {
		return w.ProbeValues(p, objs)
	}
	out := bitvec.NewPlanes(len(objs), w.k)
	for j, o := range objs {
		out.Set(j, clampRating(w.Report(p, o), w.scale))
	}
	return out
}

// ReportPlaneWords writes player p's reports for the objects whose bits
// are set in mask within object word wi into dst (one word per plane,
// aligned with mask). Honest players ride ProbePlaneWords (two atomics for
// the whole word); dishonest players are asked per object through their
// behavior, in ascending object order, clamped into scale.
func (w *World) ReportPlaneWords(p, wi int, mask uint64, dst []uint64) {
	mask &= w.wordMask(wi)
	if w.honest[p] {
		w.ProbePlaneWords(p, wi, mask, dst)
		return
	}
	for l := range dst {
		dst[l] = 0
	}
	base := wi * 64
	for t := mask; t != 0; t &= t - 1 {
		b := uint(bits.TrailingZeros64(t))
		v := clampRating(w.Report(p, base+int(b)), w.scale)
		for l := 0; l < w.k; l++ {
			if v>>l&1 == 1 {
				dst[l] |= 1 << b
			}
		}
	}
}

// Params configures the generalized protocol.
type Params struct {
	// B is the budget parameter (clusters of ≥ n/B − n/(3B) players).
	B int
	// SampleFactor f sets |S| ≈ f·ln(n)·n·scale/D for diameter guess D
	// (sampling rate f·ln(n)·scale/D per object, capped at 1).
	SampleFactor float64
	// EdgeFactor e sets the neighbor threshold to e× the expected sampled
	// L1 distance of a pair at the diameter guess (e·rate·D).
	EdgeFactor float64
	// RedundancyFactor r sets ⌈r·ln n⌉ probers per (cluster, object).
	RedundancyFactor float64
	// MinD/MaxD restrict the diameter-doubling loop (L1 diameters).
	MinD, MaxD int

	// PhaseSerial makes the run single-threaded: the Byzantine wrapper's
	// repetitions execute one after another, and the protocol's phase
	// loops (publish, neighbor graph, median work-share, final selection)
	// run on the serial reference schedule. PhaseWorkers, when positive
	// and PhaseSerial is unset, pins the phase loops to exactly that many
	// workers (par.Fixed). Phase loops fan out on pre-split streams with
	// index-ordered merges and repetitions merge in order, so fixed-seed
	// output is byte-identical under every schedule — the same contract as
	// core.Params (DESIGN.md §9, §12).
	PhaseSerial  bool
	PhaseWorkers int

	// NeighborIndex selects the neighbor graph's representation
	// ("+dense"/"+sparse"/"+auto"), mirroring core.Params.NeighborIndex.
	// Only the representation half of the spec applies here: L1 neighbor
	// discovery always runs the exact block-pair sweep
	// (cluster.BuildGraphL1On) because the LSH banding index hashes
	// Hamming lanes, not bit-sliced L1 rows; Run panics on Kind "lsh" to
	// keep the knob honest.
	NeighborIndex cluster.IndexSpec
}

// Scaled returns simulation-scale constants mirroring core.Scaled.
func Scaled(n, b int) Params {
	return Params{B: b, SampleFactor: 0.5, EdgeFactor: 4, RedundancyFactor: 1.5}
}

// phaseExec resolves the schedule flags to the phase-loop executor.
func phaseExec(pr Params) *par.Runner {
	return par.Sched(pr.PhaseSerial, pr.PhaseWorkers)
}

// Result is the protocol output.
type Result struct {
	// Output[p] is the predicted bit-sliced rating vector of player p.
	Output []bitvec.Planes
	// Ds lists the diameter guesses executed, and NumClusters[i] the
	// number of clusters peeled at guess Ds[i], for instrumentation.
	Ds          []int
	NumClusters []int
}

// Run executes the generalized CalculatePreferences over the rating world.
// Shared coins are split per phase, per cluster, and per object from the
// given stream, so for a fixed seed the output is identical under every
// schedule (PhaseSerial, fixed-width, parallel).
func Run(w *World, shared *xrand.Stream, pr Params) *Result {
	if !pr.NeighborIndex.IsExact() {
		panic("multival: NeighborIndex kind " + pr.NeighborIndex.Kind +
			" is Hamming-only; L1 discovery supports representation specs only")
	}
	n, m := w.N(), w.M()
	exec := phaseExec(pr)
	lnn := analysis.Ln(n)
	minSize := analysis.VisibleClusterSize(n, pr.B)
	res := &Result{}

	lo, hi := pr.MinD, pr.MaxD
	if lo <= 0 {
		lo = 1
	}
	if hi <= 0 {
		hi = n * w.scale
	}
	var candidates [][]bitvec.Planes // per guess: one vector per player
	gi := 0
	for d := 1; d <= n*w.scale; d *= 2 {
		if d < lo || d > hi {
			continue
		}
		iterRng := shared.Split(uint64(gi), uint64(d))
		gi++
		res.Ds = append(res.Ds, d)
		candidates = append(candidates, runIteration(w, exec, d, minSize, lnn, iterRng, pr, res))
	}
	if len(candidates) == 0 {
		zero := bitvec.NewPlanes(m, w.k)
		res.Output = make([]bitvec.Planes, n)
		for p := range res.Output {
			res.Output[p] = zero // shared zero vector, never mutated
		}
		return res
	}

	// Final selection per player: probe a few random objects and keep the
	// candidate with the smallest L1 disagreement (the RSelect analogue;
	// sampling L1 distances concentrates the same way). Selection coins are
	// split per player, so the outcome is schedule-independent.
	zero := bitvec.NewPlanes(m, w.k)
	res.Output = make([]bitvec.Planes, n)
	exec.For(n, func(p int) {
		if !w.IsHonest(p) {
			res.Output[p] = zero
			return
		}
		if len(candidates) == 1 {
			res.Output[p] = candidates[0][p]
			return
		}
		rng := shared.Split(0xFE11, uint64(p))
		check := rng.Sample(m, minInt(m, 8*int(lnn)))
		best, bestScore := 0, 1<<60
		for ci := range candidates {
			cand := candidates[ci][p]
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
				best, bestScore = ci, score
			}
		}
		res.Output[p] = candidates[best][p]
	})
	return res
}

// runIteration performs one diameter guess: sample, publish, cluster,
// median work-share — all on the run's executor and the word-level data
// path.
func runIteration(w *World, exec *par.Runner, d, minSize int, lnn float64, shared *xrand.Stream, pr Params, res *Result) []bitvec.Planes {
	n, m := w.N(), w.M()
	rate := pr.SampleFactor * lnn * float64(w.scale) / float64(d)
	if rate > 1 {
		rate = 1
	}
	sample := shared.Split(0x5A).BernoulliSubset(m, rate)
	if len(sample) == 0 {
		sample = []int{0}
	}

	// Every player publishes its (claimed) ratings on the sample,
	// bit-sliced; honest rows ride the bulk probe path.
	published := make([]bitvec.Planes, n)
	exec.For(n, func(p int) {
		published[p] = w.ReportValues(p, sample)
	})

	// Neighbor graph on L1 sample distance: a pair at true L1 distance d
	// lands at ≈ rate·d on the sample, so the edge threshold is a small
	// multiple of that. The sweep rides the cluster.Graph seam like the
	// binary path — block-partitioned over the executor, each pair's
	// bit-sliced L1 computed once (the engine's private [][]int adjacency
	// build computed every distance twice), filling the representation the
	// NeighborIndex spec picks — and the peel is the shared greedy one
	// (cluster.Build). The scalar slice-of-slices peel this replaced
	// survives as the reference oracle (TestGraphSeamMatchesScalarPeel).
	threshold := int(pr.EdgeFactor * rate * float64(d))
	if threshold < 1 {
		threshold = 1
	}
	g := cluster.BuildGraphL1On(exec, published, threshold, pr.NeighborIndex.Rep())
	cl := cluster.Build(g, minSize)
	res.NumClusters = append(res.NumClusters, len(cl.Clusters))

	// Median work sharing over (cluster, word-block) cells — 64 objects per
	// cell — with per-worker scratch arenas (no allocation in the loop
	// body). For each object the shared per-(cluster, object) stream picks
	// red probers with repetition (exactly the scalar engine's draw order);
	// each touched member's reports for the whole block are fetched once,
	// bit-sliced (bulk probes for honest members), and the per-object
	// counting median — equal to Median over the same multiset — is
	// accumulated a plane word at a time. Every member of a cluster shares
	// the cluster's one immutable median vector; candidates are never
	// mutated downstream, so a per-member clone would be pure allocation.
	red := int(pr.RedundancyFactor*lnn) + 1
	out := make([]bitvec.Planes, n)
	zero := bitvec.NewPlanes(m, w.k)
	for p := range out {
		out[p] = zero // shared default for unassigned players (never mutated)
	}
	numCl := len(cl.Clusters)
	if numCl == 0 || m == 0 {
		return out
	}
	maxMembers := 0
	for _, members := range cl.Clusters {
		if len(members) > maxMembers {
			maxMembers = len(members)
		}
	}
	clusterStreams := make([]xrand.Stream, numCl)
	for j := range clusterStreams {
		clusterStreams[j] = shared.SplitValue(0x5C, uint64(j))
	}
	majs := make([]bitvec.Planes, numCl)
	for j := range majs {
		majs[j] = bitvec.NewPlanes(m, w.k)
	}

	words := (m + 63) / 64
	cells := numCl * words
	scratches := make([]mvScratch, exec.Workers(cells))
	for i := range scratches {
		scratches[i].init(red, maxMembers, w.k, w.scale)
	}
	exec.ForWorker(cells, func(wk, cell int) {
		sc := &scratches[wk]
		j, wb := cell/words, cell%words
		members := cl.Clusters[j]
		base := wb * 64
		hi := base + 64
		if hi > m {
			hi = m
		}
		// Pass 1: shared coins choose each object's probers (member
		// indices, with repetition — duplicates count twice in the median,
		// as in the scalar engine), accumulating each touched member's
		// 64-object fetch mask.
		for o := base; o < hi; o++ {
			rng := clusterStreams[j].SplitValue(uint64(o))
			row := sc.picks[(o-base)*red : (o-base)*red+red]
			bit := uint64(1) << uint(o-base)
			for i := range row {
				mi := rng.Intn(len(members))
				row[i] = mi
				if sc.mask[mi] == 0 {
					sc.touched = append(sc.touched, mi)
				}
				sc.mask[mi] |= bit
			}
		}
		// Pass 2: fetch each touched member's bit-sliced reports for the
		// block — one bulk probe (two atomics) per honest (member, block).
		for _, mi := range sc.touched {
			w.ReportPlaneWords(members[mi], wb, sc.mask[mi], sc.vals[mi*w.k:mi*w.k+w.k])
		}
		// Pass 3: per-object counting median, accumulated into plane words.
		for l := 0; l < w.k; l++ {
			sc.outw[l] = 0
		}
		for o := base; o < hi; o++ {
			b := uint(o - base)
			for v := range sc.counts {
				sc.counts[v] = 0
			}
			row := sc.picks[(o-base)*red : (o-base)*red+red]
			for _, mi := range row {
				v := 0
				vals := sc.vals[mi*w.k : mi*w.k+w.k]
				for l, wv := range vals {
					v |= int(wv>>b&1) << l
				}
				sc.counts[v]++
			}
			med, cum := 0, 0
			target := (red - 1) / 2
			for v, c := range sc.counts {
				cum += c
				if cum > target {
					med = v
					break
				}
			}
			for l := 0; l < w.k; l++ {
				if med>>l&1 == 1 {
					sc.outw[l] |= 1 << b
				}
			}
		}
		for l := 0; l < w.k; l++ {
			majs[j].SetPlaneWord(l, wb, sc.outw[l])
		}
		// Reset the arena: no state crosses cells, so results stay
		// schedule-independent (par.Runner.ForWorker contract).
		for _, mi := range sc.touched {
			sc.mask[mi] = 0
		}
		sc.touched = sc.touched[:0]
	})
	for j, members := range cl.Clusters {
		for _, p := range members {
			out[p] = majs[j]
		}
	}
	return out
}

// mvScratch is one worker's reusable buffers for the median work-share
// loop: the per-object prober choices for a 64-object block, each touched
// member's fetch mask and bit-sliced report words, the counting-median
// histogram, and the accumulated output plane words. A worker resets its
// arena at the end of every cell (par.Runner.ForWorker).
type mvScratch struct {
	picks   []int    // 64·red prober choices (member indices) for one block
	mask    []uint64 // mask[mi] = member mi's fetch mask, this block
	vals    []uint64 // vals[mi·k : (mi+1)·k] = member mi's report planes
	touched []int    // member indices with mask != 0, in first-touch order
	counts  []int    // scale+1 counting-median histogram
	outw    []uint64 // k accumulated median plane words
}

func (sc *mvScratch) init(red, maxMembers, k, scale int) {
	sc.picks = make([]int, 64*red)
	sc.mask = make([]uint64, maxMembers)
	sc.vals = make([]uint64, maxMembers*k)
	sc.touched = make([]int, 0, maxMembers)
	sc.counts = make([]int, scale+1)
	sc.outw = make([]uint64, k)
}

// clampRating forces reported ratings into [0, scale]; dishonest players
// cannot inject out-of-scale values (the bulletin board validates writes).
func clampRating(r, scale int) int {
	if r < 0 {
		return 0
	}
	if r > scale {
		return scale
	}
	return r
}

// Errors returns per-honest-player L1 errors of the outputs, word-level.
func Errors(w *World, out []bitvec.Planes) []int {
	var errs []int
	for p := 0; p < w.N(); p++ {
		if !w.IsHonest(p) {
			continue
		}
		errs = append(errs, w.truthRow(p).L1(out[p]))
	}
	return errs
}

// ErrorStats summarizes per-player L1 errors.
func ErrorStats(w *World, out []bitvec.Planes) metrics.ErrorStats {
	return metrics.Summarize(Errors(w, out))
}

// Buffer is a reusable allocation arena for rating-instance generation,
// mirroring prefgen.Buffer: its Generate draws exactly the same random
// streams as the package-level Generate — for a given rng the generated
// instance is bit-identical — but builds the truth planes in pooled
// storage. Each call invalidates the rows returned by the previous call on
// the same Buffer. A Buffer is not safe for concurrent use: pool one per
// worker. The zero value is ready; a nil *Buffer allocates fresh on every
// call, which is how the package-level Generate is implemented.
type Buffer struct {
	truth     []bitvec.Planes
	centers   []bitvec.Planes
	clusterOf []int
	// lz is the pooled LazyPlanes value LazyGenerate hands out (source.go).
	lz LazyPlanes
}

// Generate plants clusters of the given size whose members are within L1
// diameter of each other on a 0..scale rating scale, mirroring
// prefgen.DiameterClusters. The returned rows are bit-sliced
// (PlaneBits(scale) planes each).
func Generate(rng *xrand.Stream, n, m, clusterSize, diameter, scale int) ([]bitvec.Planes, []int) {
	return (*Buffer)(nil).Generate(rng, n, m, clusterSize, diameter, scale)
}

// Generate is the pooled Generate; see Buffer.
func (b *Buffer) Generate(rng *xrand.Stream, n, m, clusterSize, diameter, scale int) ([]bitvec.Planes, []int) {
	if clusterSize <= 0 || clusterSize > n {
		panic("multival: bad cluster size")
	}
	if scale < 1 {
		panic("multival: scale must be ≥ 1")
	}
	numClusters := n / clusterSize
	if numClusters == 0 {
		numClusters = 1
	}
	k := bitvec.PlaneBits(scale)
	var centers, truth []bitvec.Planes
	var clusterOf []int
	if b == nil {
		centers = zeroPlanes(nil, numClusters, m, k)
		truth = zeroPlanes(nil, n, m, k)
		clusterOf = make([]int, n)
	} else {
		b.centers = zeroPlanes(b.centers, numClusters, m, k)
		b.truth = zeroPlanes(b.truth, n, m, k)
		if cap(b.clusterOf) < n {
			b.clusterOf = make([]int, n)
		}
		centers, truth, clusterOf = b.centers, b.truth, b.clusterOf[:n]
	}
	for c := range centers {
		row := centers[c]
		for o := 0; o < m; o++ {
			row.Set(o, rng.Intn(scale+1))
		}
	}
	perm := rng.Perm(n)
	for rank, p := range perm {
		c := rank / clusterSize
		if c >= numClusters {
			c = numClusters - 1
		}
		clusterOf[p] = c
		row := truth[p]
		row.CopyFrom(centers[c])
		budget := diameter / 2
		for budget > 0 {
			o := rng.Intn(m)
			delta := 1
			if rng.Bool() {
				delta = -1
			}
			nv := row.Get(o) + delta
			if nv >= 0 && nv <= scale {
				row.Set(o, nv)
				budget--
			}
		}
	}
	return truth, clusterOf
}

// zeroPlanes resizes ps to count zeroed Planes of m values × k bits,
// reusing both the slice and each row's backing words when capacities
// allow (mirroring prefgen.zeroVecs).
func zeroPlanes(ps []bitvec.Planes, count, m, k int) []bitvec.Planes {
	if cap(ps) < count {
		grown := make([]bitvec.Planes, count)
		copy(grown, ps[:cap(ps)]) // keep old rows' storage for Renew
		ps = grown
	}
	ps = ps[:count]
	for i := range ps {
		ps[i] = ps[i].Renew(m, k)
	}
	return ps
}

// RandomRater is the non-binary random liar: consistent pseudo-random
// ratings.
type RandomRater struct{ Seed uint64 }

// Report returns a consistent pseudo-random rating.
func (r RandomRater) Report(w *World, p, o int) int {
	x := r.Seed ^ uint64(p)<<32 ^ uint64(o)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(w.Scale()+1))
}

// Exaggerator pushes every rating to the nearest extreme of the scale —
// the attack median aggregation is specifically robust to.
type Exaggerator struct{}

// Report returns 0 or scale depending on the player's true lean.
func (Exaggerator) Report(w *World, p, o int) int {
	if w.PeekTruth(p, o)*2 >= w.Scale() {
		return w.Scale()
	}
	return 0
}

// Shifter reports truth plus a constant bias (clamped), modeling a
// systematically harsh or generous dishonest reviewer.
type Shifter struct{ Delta int }

// Report returns the biased rating.
func (s Shifter) Report(w *World, p, o int) int {
	return clampRating(w.PeekTruth(p, o)+s.Delta, w.Scale())
}

// Inverter reports scale − truth: the rating-scale analogue of the binary
// complement liar (adversary.FlipAll).
type Inverter struct{}

// Report returns the mirrored rating.
func (Inverter) Report(w *World, p, o int) int {
	return w.Scale() - w.PeekTruth(p, o)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
