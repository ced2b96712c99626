// Package world implements the game substrate of the paper's model (§2):
// n players, m objects, a hidden binary preference matrix, a probe oracle
// with per-player probe accounting, and pluggable per-player behaviors so
// dishonest strategies can be injected at every point where a player reports
// a value.
//
// Probes versus reports. Probing is the paper's cost measure: when player p
// probes object o it learns the truth v(p)_o, and we charge one probe to p.
// What p *reports* (writes to the bulletin board, or returns from a protocol
// subroutine) is a separate act: honest players report probed truth,
// dishonest players report whatever their strategy dictates — without
// necessarily probing, since the adversary is full-information.
package world

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
)

// Behavior decides what a player reports when the protocol asks it to probe
// an object and publish the result. Implementations must be safe for
// concurrent use across distinct calls, including calls from concurrently
// executing Runs over the same World.
type Behavior interface {
	// Report returns the value player p publishes for object o. Honest
	// behaviors probe (charging p) and return the truth; dishonest ones may
	// return anything and typically do not probe. The Run carries the
	// published protocol state of the execution asking for the report.
	Report(rc *Run, p, o int) bool
}

// Honest is the protocol-following behavior: probe and report the truth.
type Honest struct{}

// Report probes object o as player p and returns the true preference.
func (Honest) Report(rc *Run, p, o int) bool { return rc.Probe(p, o) }

// Public is protocol state visible to all players — and therefore to the
// full-information adversary. Protocol phases update it as they go so that
// adaptive strategies (cluster hijacking, strange-object attacks) can react.
type Public struct {
	// Phase names the currently executing protocol phase, e.g. "sample",
	// "smallradius", "workshare".
	Phase string
	// Sample holds the current sample set S (global object ids), when one
	// has been published. Use SetSample to keep the membership index in sync.
	Sample []int
	// sampleSet indexes Sample as a bitset for O(1) membership tests.
	// Adversary behaviors consult it on every report of the smallradius
	// phase, so it must be cheap and safe under concurrent reads: the
	// vector is immutable between SetSample calls (which happen only at
	// phase barriers), and a bit test beats a map lookup on this path.
	sampleSet bitvec.Vector
	// Clusters holds the current clustering (player ids per cluster), when
	// one has been computed.
	Clusters [][]int
	// TargetDiameter is the diameter guess D of the current iteration.
	TargetDiameter int
}

// SetSample publishes a sample set and rebuilds the membership index.
// Passing nil clears the sample.
func (pub *Public) SetSample(sample []int) {
	pub.Sample = sample
	if sample == nil {
		pub.sampleSet = bitvec.Vector{}
		return
	}
	mx := 0
	for _, o := range sample {
		if o > mx {
			mx = o
		}
	}
	set := bitvec.New(mx + 1)
	for _, o := range sample {
		set.Set(o, true)
	}
	pub.sampleSet = set
}

// InSample reports whether object o belongs to the published sample set.
// It returns false when no sample is published.
func (pub *Public) InSample(o int) bool {
	return o >= 0 && o < pub.sampleSet.Len() && pub.sampleSet.Get(o)
}

// HasSample reports whether a sample set is currently published.
func (pub *Public) HasSample() bool { return pub.Sample != nil }

// Run is a per-execution context: one protocol run over a read-only World.
// It owns the mutable published state (Pub) that protocol phases update as
// they go and that full-information adversary behaviors observe. Because
// every run carries its own Pub, independent runs — e.g. the repetitions of
// the Byzantine wrapper — can execute concurrently over one World without
// their observer state interfering (see DESIGN.md §6).
//
// A Run embeds the World, so all read-only accessors (N, M, Probe,
// IsHonest, …) are available on it directly. Pub must only be mutated
// between parallel phases of the owning run (never concurrently with Report
// calls that read it), exactly as the World-global Pub had to be before
// Runs existed.
//
// A Run also carries the execution policy for its phase loops: protocol
// packages schedule their per-player and per-object fan-out on Exec(), so
// a run's phase loops can be pinned to the single-threaded reference
// schedule (core.Params.PhaseSerial → NewRunOn(w, par.Serial()); DESIGN.md
// §9) without threading a flag through every protocol signature.
type Run struct {
	*World
	Pub Public
	// exec is the phase-loop executor; nil means par.Parallel().
	exec *par.Runner
}

// NewRun creates a fresh execution context over w with empty published
// state and the default parallel phase executor.
func NewRun(w *World) *Run { return &Run{World: w} }

// NewRunOn creates a fresh execution context whose phase loops run under
// the given executor (nil means parallel). Protocols derive it from their
// PhaseSerial/PhaseWorkers pair with par.Sched: par.Serial() is the
// deterministic reference schedule, par.Fixed(k) forces k workers in race
// tests.
func NewRunOn(w *World, exec *par.Runner) *Run { return &Run{World: w, exec: exec} }

// Exec returns the executor protocol phases must schedule their loops on.
// It never returns nil.
func (rc *Run) Exec() *par.Runner {
	if rc.exec == nil {
		return par.Parallel()
	}
	return rc.exec
}

// Report asks player p's behavior for its published value for object o, in
// the context of this run.
func (rc *Run) Report(p, o int) bool { return rc.behaviors[p].Report(rc, p, o) }

// ReportVector returns player p's reports for the given objects as a vector
// indexed like objs (bit j corresponds to objs[j]). For honest players this
// probes every listed object — on the word-level bulk path (ProbeVector),
// which charges identically to per-object probing. Dishonest players are
// asked per object, since their behaviors decide each report.
func (rc *Run) ReportVector(p int, objs []int) bitvec.Vector {
	if rc.honest[p] {
		return rc.ProbeVector(p, objs)
	}
	v := bitvec.New(len(objs))
	for j, o := range objs {
		if rc.Report(p, o) {
			v.Set(j, true)
		}
	}
	return v
}

// ReportWord returns player p's reports for the objects whose bits are set
// in mask within object word wi, as a word aligned with mask. Honest
// players ride ProbeWord (two atomics for the whole word); dishonest
// players are asked per object through their behavior, in ascending object
// order.
func (rc *Run) ReportWord(p, wi int, mask uint64) uint64 {
	if rc.honest[p] {
		return rc.ProbeWord(p, wi, mask)
	}
	var vals uint64
	base := wi * 64
	for t := mask; t != 0; t &= t - 1 {
		b := bits.TrailingZeros64(t)
		if rc.Report(p, base+b) {
			vals |= 1 << uint(b)
		}
	}
	return vals
}

// World is the simulation substrate. The truth matrix, roles, and behaviors
// are fixed at construction; probe counters are updated concurrently. A
// World is read-only during protocol execution: all mutable published state
// lives in the per-execution Run.
type World struct {
	n, m, words int
	// src is the pluggable truth representation (DESIGN.md §14); truth is
	// the dense fast path, aliasing src's rows when src is *prefgen.Dense
	// and nil for lazy sources.
	src   prefgen.TruthSource
	truth []bitvec.Vector
	// tailMask masks the valid bits of the last object word.
	tailMask  uint64
	honest    []bool
	behaviors []Behavior
	probes    []atomic.Int64
	// known is the per-player probe memo: a lock-free atomic bitset
	// (bitvec.Atomic) so that concurrent probes of one (player, object)
	// pair charge exactly once under any schedule. Once a player has
	// probed an object it knows the answer forever, so re-probing is
	// free: the paper's probe complexity counts distinct objects examined.
	//
	// Memos are installed on a player's FIRST probe (memo), not at
	// construction: eagerly allocating n bitsets of m bits is itself the
	// O(n·m) wall the lazy truth sources remove, and protocols only ever
	// probe a vanishing fraction of players at the scales where that wall
	// matters.
	known []atomic.Pointer[bitvec.Atomic]
}

// New creates a world from a truth matrix. All players start honest; use
// SetBehavior/SetDishonest to corrupt some of them. It panics if truth is
// empty or rows have unequal lengths.
func New(truth []bitvec.Vector) *World { return NewFrom(prefgen.NewDense(truth)) }

// NewFrom creates a world over any truth source — the materialized Dense
// wrapper (New) or a lazy on-demand source. It panics if the source is
// empty or (for dense sources) rows have unequal lengths.
func NewFrom(src prefgen.TruthSource) *World {
	n := src.Players()
	if n == 0 {
		panic("world: no players")
	}
	m := src.Objects()
	w := &World{
		n:         n,
		m:         m,
		words:     (m + 63) / 64,
		src:       src,
		truth:     denseRows(src, m),
		tailMask:  tailMask(m),
		honest:    make([]bool, n),
		behaviors: make([]Behavior, n),
		probes:    make([]atomic.Int64, n),
		known:     make([]atomic.Pointer[bitvec.Atomic], n),
	}
	for p := range w.honest {
		w.honest[p] = true
		w.behaviors[p] = Honest{}
	}
	return w
}

// denseRows returns the fast-path row slice for a dense source (validating
// row lengths exactly as New always has), nil for any other source.
func denseRows(src prefgen.TruthSource, m int) []bitvec.Vector {
	d, ok := src.(*prefgen.Dense)
	if !ok {
		return nil
	}
	rows := d.Rows()
	for p, v := range rows {
		if v.Len() != m {
			panic(fmt.Sprintf("world: truth row %d has length %d, want %d", p, v.Len(), m))
		}
	}
	return rows
}

// tailMask returns the valid-bit mask of the last word of an m-bit row.
func tailMask(m int) uint64 {
	if r := m % 64; r != 0 {
		return (1 << uint(r)) - 1
	}
	return ^uint64(0)
}

// Renew re-initializes a world for a new truth matrix, reusing w's
// allocations (role slices, probe counters, probe memos) when the shape
// matches; a nil w or a shape change falls back to New. All players start
// honest and all counters start at zero, exactly as New leaves them, so
//
//	w = world.Renew(w, truth)
//
// is observationally identical to world.New(truth) — it is the pooled
// constructor the sweep engine's per-worker arenas use to avoid rebuilding
// O(n·m/64) memo storage on every grid point. The previous truth matrix and
// any outstanding Runs over the old world must no longer be in use.
func Renew(w *World, truth []bitvec.Vector) *World {
	return RenewFrom(w, prefgen.NewDense(truth))
}

// RenewFrom is Renew over any truth source; see Renew and NewFrom.
func RenewFrom(w *World, src prefgen.TruthSource) *World {
	if w == nil || src.Players() != w.n || src.Players() == 0 || src.Objects() != w.m {
		return NewFrom(src)
	}
	w.src = src
	w.truth = denseRows(src, w.m)
	for p := range w.honest {
		w.honest[p] = true
		w.behaviors[p] = Honest{}
	}
	w.ResetProbes()
	return w
}

// N returns the number of players.
func (w *World) N() int { return w.n }

// M returns the number of objects.
func (w *World) M() int { return w.m }

// memo returns player p's probe memo, installing it on first use. The
// install is a CAS race any number of concurrent probers may enter; losers
// adopt the winner's bitset, so exactly one memo ever serves a player and
// the charge-once guarantee below is unaffected.
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

// Probe returns the true preference v(p)_o and charges one probe to player
// p unless p has probed o before (probing teaches the answer permanently,
// so only distinct objects count). It is safe and lock-free under
// concurrent use: the memo's CAS ensures exactly one caller charges each
// (player, object) pair, so probe counters are schedule-independent.
func (w *World) Probe(p, o int) bool {
	if !w.memo(p).TestAndSet(o) {
		w.probes[p].Add(1)
	}
	return w.PeekTruth(p, o)
}

// ProbeWords returns the number of 64-bit words spanning the object set:
// the word index range valid for ProbeWord. Object o lives in word o/64,
// bit o%64.
func (w *World) ProbeWords() int { return (w.m + 63) / 64 }

// ProbeWord probes, as player p, every object whose bit is set in mask
// within object word wi (object ids wi*64 … wi*64+63), and returns the
// true preference bits for exactly those objects. Bits of mask past the
// last object are ignored. It is the word-level Probe: one CAS marks all
// the mask's objects known and one atomic add charges popcount of the
// newly learned bits, so a full word costs the same two atomics a single
// bit used to — with per-player totals identical to bit-at-a-time Probe
// under every schedule (each (player, object) pair is charged exactly
// once, by whichever caller's CAS learns it first).
func (w *World) ProbeWord(p, wi int, mask uint64) uint64 {
	mask &= w.wordMask(wi)
	if nb := w.memo(p).OrWord(wi, mask); nb != 0 {
		w.probes[p].Add(int64(bits.OnesCount64(nb)))
	}
	if w.truth != nil {
		return w.truth[p].Word(wi) & mask
	}
	return w.src.TruthBits(p, wi, mask)
}

// wordMask returns the valid-bit mask for object word wi, panicking on an
// out-of-range index like bitvec.Vector.WordMask does — representation-
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

// ProbeVector probes, as player p, every object in objs and returns the
// true preferences as a vector indexed like objs (bit j is the truth for
// objs[j]). Runs of objects sharing a 64-bit word — the common case, since
// protocol object lists are sorted — collapse into single ProbeWord calls,
// whose returned truth bits fill the run's output bits; the only
// allocation is the returned vector. Probe charging is identical to
// calling Probe per object.
func (w *World) ProbeVector(p int, objs []int) bitvec.Vector {
	out := bitvec.New(len(objs))
	curW, start := -1, 0
	var curMask, acc uint64 // acc: output word of the current position
	flush := func(end int) {
		if curMask == 0 {
			return
		}
		tw := w.ProbeWord(p, curW, curMask)
		for j := start; j < end; j++ {
			acc |= (tw >> (uint(objs[j]) % 64) & 1) << (uint(j) % 64)
			if j%64 == 63 {
				out.SetWord(j/64, acc)
				acc = 0
			}
		}
	}
	for j, o := range objs {
		if o < 0 || o >= w.m {
			panic(fmt.Sprintf("world: object %d out of range [0,%d)", o, w.m))
		}
		wi := o / 64
		if wi != curW {
			flush(j)
			curW, curMask, start = wi, 0, j
		}
		curMask |= 1 << (uint(o) % 64)
	}
	flush(len(objs))
	if len(objs)%64 != 0 {
		out.SetWord(len(objs)/64, acc)
	}
	return out
}

// PeekTruth returns v(p)_o without charging a probe. It exists for the
// full-information adversary and for measurement code; protocol logic must
// use Probe.
func (w *World) PeekTruth(p, o int) bool {
	if w.truth != nil {
		return w.truth[p].Get(o)
	}
	return w.src.TruthBits(p, o/64, 1<<(uint(o)%64)) != 0
}

// TruthVector returns a copy of player p's full truth vector (measurement
// use only). For lazy sources this materializes the row.
func (w *World) TruthVector(p int) bitvec.Vector { return prefgen.Materialize(w.src, p) }

// Source returns the world's truth source.
func (w *World) Source() prefgen.TruthSource { return w.src }

// SetBehavior installs a behavior for player p and marks it dishonest
// unless the behavior is Honest.
func (w *World) SetBehavior(p int, b Behavior) {
	w.behaviors[p] = b
	_, isHonest := b.(Honest)
	w.honest[p] = isHonest
}

// IsHonest reports whether player p follows the protocol.
func (w *World) IsHonest(p int) bool { return w.honest[p] }

// HonestPlayers returns the ids of all honest players, ascending.
func (w *World) HonestPlayers() []int {
	var out []int
	for p := 0; p < w.n; p++ {
		if w.honest[p] {
			out = append(out, p)
		}
	}
	return out
}

// DishonestPlayers returns the ids of all dishonest players, ascending.
func (w *World) DishonestPlayers() []int {
	var out []int
	for p := 0; p < w.n; p++ {
		if !w.honest[p] {
			out = append(out, p)
		}
	}
	return out
}

// NumDishonest returns the number of dishonest players.
func (w *World) NumDishonest() int {
	c := 0
	for _, h := range w.honest {
		if !h {
			c++
		}
	}
	return c
}

// Probes returns the number of probes charged to player p so far.
func (w *World) Probes(p int) int64 { return w.probes[p].Load() }

// MaxHonestProbes returns the maximum probe count over honest players —
// the paper's per-player probe complexity measure.
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

// TotalProbes returns the total probes charged across all players.
func (w *World) TotalProbes() int64 {
	var t int64
	for p := range w.probes {
		t += w.probes[p].Load()
	}
	return t
}

// ResetProbes zeroes all probe counters and forgets all memoized probes.
// It must not run concurrently with Probe calls (it is a between-runs
// operation, not a phase operation).
func (w *World) ResetProbes() {
	for p := range w.probes {
		w.probes[p].Store(0)
		if k := w.known[p].Load(); k != nil {
			k.Reset() // keep the allocation for pooled reuse
		}
	}
}

// HonestError returns, for honest player p, the Hamming distance between
// the supplied output vector (over all m objects) and p's truth. It panics
// if the lengths differ.
func (w *World) HonestError(p int, out bitvec.Vector) int {
	if w.truth != nil {
		return w.truth[p].Hamming(out)
	}
	if out.Len() != w.m {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", w.m, out.Len()))
	}
	d := 0
	for wi := 0; wi < w.words; wi++ {
		d += bits.OnesCount64(w.src.TruthBits(p, wi, ^uint64(0)) ^ out.Word(wi))
	}
	return d
}
