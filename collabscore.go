// Package collabscore is a simulation library for Byzantine-robust
// collaborative scoring, reproducing "Collaborative Scoring with Dishonest
// Participants" (Gilbert, Guerraoui, Malakouti Rad, Zadimoghaddam,
// SPAA 2010).
//
// A set of n players wants to score a set of m objects. Each player has a
// hidden binary preference vector and can probe objects to learn its own
// preferences one bit at a time. The CalculatePreferences protocol lets
// every player predict its full preference vector using only O(B·polylog n)
// probes — asymptotically as accurately as any algorithm with budget B —
// even when up to n/(3B) players are dishonest and colluding.
//
// The top-level API builds and runs simulations:
//
//	sim := collabscore.NewSimulation(collabscore.Config{
//	    Players: 1024, Objects: 1024, Budget: 8, Seed: 42,
//	})
//	sim.PlantClusters(128, 32)          // clusters of 128 players, diameter 32
//	sim.Corrupt(40, collabscore.RandomLiar) // 40 dishonest players
//	report := sim.RunByzantine()
//	fmt.Println(report)
//
// Lower-level building blocks (the bulletin board, ZeroRadius, SmallRadius,
// RSelect/Select, Feige leader election, adversary strategies, preference
// generators) live in internal packages and are exercised through this API,
// the example programs under examples/, and the experiment harness under
// cmd/experiments.
package collabscore

import (
	"fmt"

	"collabscore/internal/adversary"
	"collabscore/internal/baseline"
	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/metrics"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// Config describes a simulation.
type Config struct {
	// Players is the number of players n (must be ≥ 1).
	Players int
	// Objects is the number of objects m; 0 defaults to Players (the
	// paper's n-players/n-objects setting).
	Objects int
	// Budget is the parameter B: the protocol targets the accuracy
	// achievable by clusters of n/B players using O(B·polylog n) probes.
	// 0 defaults to 8.
	Budget int
	// Seed makes the whole simulation reproducible.
	Seed uint64
	// PaperConstants selects the literal constants from the paper instead
	// of the simulation-scale defaults. See DESIGN.md §4: the paper's
	// polylog constants exceed laptop-scale n, so runs with PaperConstants
	// degenerate to probe-everything below n ≈ 10⁶.
	PaperConstants bool
	// FixedDiameter, when positive, restricts the diameter-doubling loop to
	// that single guess (used by experiments that know the planted D).
	FixedDiameter int
	// NeighborIndex selects how the clustering step discovers neighbor
	// pairs: "" or "exact" (the default all-pairs sweep, the reference
	// oracle and the historical behavior bit for bit), "lsh" (the
	// sub-quadratic banding index with default shape), or
	// "lsh:BANDS:ROWS". An optional "+dense"/"+sparse"/"+auto" suffix
	// picks the neighbor-graph representation (DESIGN.md §16): dense
	// bitset rows, sparse CSR edge lists, or the default size rule (dense
	// below cluster.AutoSparseCutoff players). The representation never
	// changes the clustering, only its memory. Applies to the clustering
	// protocols (Run, RunByzantine, RunWithCapacities); the baselines
	// never build a neighbor graph. See DESIGN.md §13.
	NeighborIndex string
	// TruthSource selects how the hidden truth matrix is represented: "" or
	// "dense" (the materialized O(n·m) matrix, the default and the reference
	// oracle bit for bit), "lazy" (cells recomputed from the seed stream at
	// probe time, O(n) memory), or "lazy:TILES" (lazy plus a fixed-capacity
	// LRU cache of TILES generated tiles). Every representation exposes the
	// same truth — outputs, probe counts, and iteration stats are
	// byte-identical — so worlds far larger than memory can be simulated.
	// See DESIGN.md §14.
	TruthSource string
}

// Strategy names a dishonest-player behavior.
type Strategy int

// Available dishonest strategies (see internal/adversary for semantics).
const (
	// RandomLiar reports consistent random bits ("too busy to read").
	RandomLiar Strategy = iota
	// FlipAll reports the complement of its true preferences.
	FlipAll
	// Colluders report a shared coordinated target vector.
	Colluders
	// ClusterHijackers mimic a victim on the sample set, then lie.
	ClusterHijackers
	// StrangeObjectAttackers vote with the honest minority on split
	// objects (the Lemma 13 attack).
	StrangeObjectAttackers
	// ZeroSpammers always report 0.
	ZeroSpammers
	// Exaggerators push every rating to the nearest extreme of the scale —
	// the §8 rating-scale attack median aggregation absorbs. Rating
	// protocols only.
	Exaggerators
	// HarshShifters report truth shifted down by half the scale (clamped),
	// a systematically harsh dishonest reviewer. Rating protocols only.
	HarshShifters
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case RandomLiar:
		return "random-liar"
	case FlipAll:
		return "flip-all"
	case Colluders:
		return "colluders"
	case ClusterHijackers:
		return "cluster-hijackers"
	case StrangeObjectAttackers:
		return "strange-object"
	case ZeroSpammers:
		return "zero-spam"
	case Exaggerators:
		return "exaggerators"
	case HarshShifters:
		return "harsh-shifters"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// RatingCapable reports whether the strategy has a rating-scale behavior
// (§8): such strategies can corrupt RatingSimulation players and appear on
// rating-protocol sweep points. RandomLiar, FlipAll and ZeroSpammers carry
// their natural rating analogues (consistent random ratings, scale − truth,
// always 0); Exaggerators and HarshShifters are rating-native.
func (s Strategy) RatingCapable() bool {
	switch s {
	case RandomLiar, FlipAll, ZeroSpammers, Exaggerators, HarshShifters:
		return true
	}
	return false
}

// BinaryCapable reports whether the strategy has a binary-world behavior
// (usable with Simulation.Corrupt and the binary protocols).
func (s Strategy) BinaryCapable() bool {
	switch s {
	case Exaggerators, HarshShifters:
		return false
	}
	return true
}

// Simulation is a configured world ready to run the protocol. Create one
// with NewSimulation, optionally plant structure and corrupt players, then
// call Run or RunByzantine.
type Simulation struct {
	cfg      Config
	rng      *xrand.Stream
	instance *prefgen.Instance
	w        *world.World
	params   core.Params
	// truth is the parsed Config.TruthSource spec; planting methods consult
	// it to pick the dense or lazy generator family.
	truth prefgen.SourceSpec
	// pool, when non-nil, supplies reused allocations (truth buffers,
	// world, bulletin boards) for this simulation; see Pool.
	pool *Pool
}

// NewSimulation creates a simulation with uniform random preferences (no
// planted structure). Call PlantClusters or PlantZipf to add structure
// before running. It panics on nonsensical configs.
func NewSimulation(cfg Config) *Simulation {
	return Scenario{Config: cfg}.simulation(nil)
}

// pg returns the prefgen buffer generators draw from: the pool's when this
// simulation is pooled, otherwise nil (a nil *prefgen.Buffer allocates
// fresh — the historical behavior — and draws the same coins).
func (s *Simulation) pg() *prefgen.Buffer {
	if s.pool == nil {
		return nil
	}
	return &s.pool.pg
}

func (s *Simulation) rebuild() {
	src := s.instance.Source()
	if s.pool != nil {
		s.w = world.RenewFrom(s.pool.w, src)
		s.pool.w = s.w
	} else {
		s.w = world.NewFrom(src)
	}
	if s.cfg.PaperConstants {
		s.params = core.Paper(s.cfg.Players, s.cfg.Budget)
	} else {
		s.params = core.Scaled(s.cfg.Players, s.cfg.Budget)
	}
	if s.cfg.FixedDiameter > 0 {
		s.params.MinD = s.cfg.FixedDiameter
		s.params.MaxD = s.cfg.FixedDiameter
	}
	spec, err := cluster.ParseIndexSpec(s.cfg.NeighborIndex)
	if err != nil {
		panic(fmt.Sprintf("collabscore: %v", err))
	}
	s.params.NeighborIndex = spec
	if s.pool != nil {
		s.params.Mem = s.pool.mem
	}
}

// PlantClusters replaces the preference matrix with planted clusters of the
// given size and Hamming diameter (0 = identical preferences). Any
// corruption installed earlier is discarded.
func (s *Simulation) PlantClusters(clusterSize, diameter int) *Simulation {
	if s.truth.IsDense() {
		s.instance = s.pg().DiameterClusters(s.rng.Split(2), s.cfg.Players, s.cfg.Objects, clusterSize, diameter)
	} else {
		s.instance = s.pg().LazyDiameterClusters(s.rng.Split(2), s.cfg.Players, s.cfg.Objects, clusterSize, diameter, s.truth.Tiles)
	}
	s.rebuild()
	return s
}

// PlantZipf replaces the preference matrix with numClusters planted
// clusters whose sizes follow a Zipf law with the given exponent.
func (s *Simulation) PlantZipf(numClusters int, alpha float64, diameter int) *Simulation {
	if s.truth.IsDense() {
		s.instance = s.pg().ZipfClusters(s.rng.Split(3), s.cfg.Players, s.cfg.Objects, numClusters, alpha, diameter)
	} else {
		s.instance = s.pg().LazyZipfClusters(s.rng.Split(3), s.cfg.Players, s.cfg.Objects, numClusters, alpha, diameter, s.truth.Tiles)
	}
	s.rebuild()
	return s
}

// Corrupt makes k randomly chosen players dishonest with the given
// strategy. The paper's tolerance is Tolerance() players; corrupting more
// voids the guarantees (useful for measuring degradation).
func (s *Simulation) Corrupt(k int, strat Strategy) *Simulation {
	perm := s.rng.Split(4).Perm(s.cfg.Players)
	n, m := s.cfg.Players, s.cfg.Objects
	var mk func(p int) world.Behavior
	switch strat {
	case RandomLiar:
		mk = func(p int) world.Behavior { return adversary.RandomLiar{Seed: s.cfg.Seed ^ 0xA11CE} }
	case FlipAll:
		mk = func(p int) world.Behavior { return adversary.FlipAll{} }
	case Colluders:
		c := adversary.NewColluder(s.cfg.Seed^0xC0111DE, m)
		mk = func(p int) world.Behavior { return c }
	case ClusterHijackers:
		mk = func(p int) world.Behavior { return adversary.ClusterHijacker{Victim: (p + 1) % n} }
	case StrangeObjectAttackers:
		mk = func(p int) world.Behavior { return adversary.StrangeObjectAttacker{Seed: s.cfg.Seed ^ 0x57A4E} }
	case ZeroSpammers:
		mk = func(p int) world.Behavior { return adversary.ZeroSpam{} }
	default:
		if !strat.BinaryCapable() {
			panic(fmt.Sprintf("collabscore: strategy %v is rating-scale only (use RatingSimulation.Corrupt)", strat))
		}
		panic(fmt.Sprintf("collabscore: unknown strategy %v", strat))
	}
	adversary.Corrupt(s.w, k, perm, mk)
	return s
}

// Tolerance returns the paper's dishonesty tolerance n/(3B) for this
// configuration.
func (s *Simulation) Tolerance() int { return s.params.MaxDishonest(s.cfg.Players) }

// World exposes the underlying world for advanced use (custom behaviors,
// direct probing).
func (s *Simulation) World() *world.World { return s.w }

// Instance exposes the planted ground truth.
func (s *Simulation) Instance() *prefgen.Instance { return s.instance }

// Params exposes the resolved protocol parameters (mutable before Run).
func (s *Simulation) Params() *core.Params { return &s.params }

// IterationInfo describes what one diameter guess of the protocol did.
type IterationInfo struct {
	// D is the diameter guess of this iteration.
	D int
	// SampleSize is |S|, the number of sampled objects (0 on the small-D
	// path that skips sampling).
	SampleSize int
	// Clusters is the number of clusters peeled; MinCluster the smallest.
	Clusters   int
	MinCluster int
	// Unassigned counts players left out of every cluster.
	Unassigned int
	// FullSmallRadius marks the §6.1 small-D easy case.
	FullSmallRadius bool
}

// RepetitionInfo describes one Byzantine repetition: who led it, and the
// bulletin-board traffic it generated (zero for dishonest-leader
// repetitions, which run no protocol — see DESIGN.md §3).
type RepetitionInfo struct {
	Leader       int
	HonestLeader bool
	BoardWrites  int64
	BoardReads   int64
}

// Report summarizes one protocol run.
type Report struct {
	// MaxError is the paper's rate of error: the worst Hamming error over
	// honest players.
	MaxError int
	// MeanError is the average Hamming error over honest players.
	MeanError float64
	// MaxProbes is the probe complexity: the worst probe count over honest
	// players.
	MaxProbes int64
	// MeanProbes is the average probe count over honest players.
	MeanProbes float64
	// TotalProbes is the total probe count over all players, honest and
	// dishonest (the system-wide work the sweep aggregations sum).
	TotalProbes int64
	// OptDiameter is the planted reference error level (max planted cluster
	// diameter), when planted structure exists; -1 otherwise.
	OptDiameter int
	// HonestLeaders / Repetitions report the Byzantine wrapper's election
	// outcomes (zero for honest-randomness runs).
	HonestLeaders int
	Repetitions   int
	// Reps details each Byzantine repetition in order (nil for
	// honest-randomness runs).
	Reps []RepetitionInfo
	// CommWrites / CommReads account bulletin-board traffic in the
	// work-sharing phases (§8's communication-cost question).
	CommWrites int64
	CommReads  int64
	// Iterations holds per-diameter-guess statistics: the single doubling
	// loop for honest-randomness runs, or the last honest-leader repetition
	// for Byzantine runs.
	Iterations []IterationInfo
	// Outputs holds the predicted preference vector per player.
	Outputs []bitvec.Vector
}

// Prefers returns the predicted preference of player p for object o. It is
// the accessor most callers want; Outputs exposes the raw vectors (values
// of an internal packed type, usable via type inference) for bulk work.
func (r *Report) Prefers(p, o int) bool { return r.Outputs[p].Get(o) }

// String renders a one-line summary.
func (r *Report) String() string {
	s := fmt.Sprintf("max error %d (mean %.1f), max probes %d (mean %.0f)",
		r.MaxError, r.MeanError, r.MaxProbes, r.MeanProbes)
	if r.OptDiameter >= 0 {
		s += fmt.Sprintf(", planted diameter %d", r.OptDiameter)
	}
	if r.Repetitions > 0 {
		s += fmt.Sprintf(", honest leaders %d/%d", r.HonestLeaders, r.Repetitions)
	}
	return s
}

func (s *Simulation) report(res *core.Result) *Report {
	es := metrics.Error(s.w, res.Output)
	ps := metrics.Probes(s.w)
	r := &Report{
		MaxError:      es.Max,
		MeanError:     es.Mean,
		MaxProbes:     ps.Max,
		MeanProbes:    ps.Mean,
		TotalProbes:   ps.Total,
		OptDiameter:   s.instance.PlantedDiameter,
		HonestLeaders: res.HonestLeaders,
		Repetitions:   res.Repetitions,
		CommWrites:    res.BoardWrites,
		CommReads:     res.BoardReads,
		Outputs:       res.Output,
	}
	for _, rp := range res.Reps {
		r.Reps = append(r.Reps, RepetitionInfo{
			Leader:       rp.Leader,
			HonestLeader: rp.HonestLeader,
			BoardWrites:  rp.BoardWrites,
			BoardReads:   rp.BoardReads,
		})
	}
	for _, it := range res.Iterations {
		r.Iterations = append(r.Iterations, IterationInfo{
			D:               it.D,
			SampleSize:      it.SampleSize,
			Clusters:        it.NumClusters,
			MinCluster:      it.MinCluster,
			Unassigned:      it.Unassigned,
			FullSmallRadius: it.UsedFullSR,
		})
	}
	return r
}

// Run executes CalculatePreferences with trusted shared randomness (§6).
// Dishonest players may still lie about preferences; only the shared coins
// are assumed unbiased. Probe counters reset first, so Run can be called
// repeatedly on fresh clones of the same scenario.
func (s *Simulation) Run() *Report {
	s.w.ResetProbes()
	res := core.Run(s.w, s.rng.Split(10), s.params)
	return s.report(res)
}

// RunByzantine executes the full §7 protocol: Θ(log n) repetitions under
// leaders elected with Feige's lightest-bin protocol, then a final RSelect.
// The repetitions execute concurrently across cores, and within each
// repetition the protocol phases fan out over players and objects, with
// byte-identical fixed-seed output to the serial schedule (set
// Params().PhaseSerial for the single-threaded reference, which makes both
// layers serial; see DESIGN.md §6 and §9).
func (s *Simulation) RunByzantine() *Report {
	s.w.ResetProbes()
	res := core.RunByzantine(s.w, s.rng.Split(11), nil, s.params)
	return s.report(res)
}

// RunBaseline executes the prior-art baseline of Alon et al. [2,3]
// (O(B²·polylog n) probes, B-approximation, no Byzantine tolerance).
func (s *Simulation) RunBaseline() *Report {
	s.w.ResetProbes()
	pr := baseline.AASPScaled(s.cfg.Players, s.cfg.Budget)
	pr.MinD, pr.MaxD = s.params.MinD, s.params.MaxD
	out := baseline.AASP(s.w, s.rng.Split(12), pr)
	return s.report(&core.Result{Output: out})
}

// RunProbeAll executes the trivial probe-everything baseline.
func (s *Simulation) RunProbeAll() *Report {
	s.w.ResetProbes()
	out := baseline.ProbeAll(s.w)
	return s.report(&core.Result{Output: out})
}

// RunRandomGuess executes the zero-probe random-guess baseline.
func (s *Simulation) RunRandomGuess() *Report {
	s.w.ResetProbes()
	out := baseline.RandomGuess(s.w, s.rng.Split(13))
	return s.report(&core.Result{Output: out})
}
