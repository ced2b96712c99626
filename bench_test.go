package collabscore_test

// The benchmark harness regenerates every reproduction artifact (the
// paper's formal claims E1–E12 — the paper is theoretical and publishes
// pseudocode figures and theorems rather than empirical tables; see
// DESIGN.md §5) plus micro-benchmarks of the hot substrate paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkE* iteration executes the corresponding experiment at a
// reduced-but-representative scale and reports the key measured quantity
// via b.ReportMetric, so `go test -bench` output doubles as a compact
// reproduction summary.

import (
	"fmt"
	"strconv"
	"testing"

	"collabscore"

	"collabscore/internal/bitvec"
	"collabscore/internal/board"
	"collabscore/internal/experiments"
	"collabscore/internal/prefgen"
	"collabscore/internal/tablefmt"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// benchCfg is the experiment configuration used by the benchmarks: one
// trial per configuration at moderate n so the full suite completes in
// minutes.
func benchCfg() experiments.Config {
	return experiments.Config{N: 512, B: 8, Trials: 1, Seed: 2010}
}

// cell parses a float table cell, tolerating non-numeric cells.
func cell(tb *tablefmt.Table, row, col int) float64 {
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		return 0
	}
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		return 0
	}
	return v
}

// runExperimentBench executes experiment id once per benchmark iteration
// and reports the metric extracted by pick from the last iteration's table.
func runExperimentBench(b *testing.B, id string, metricName string, pick func(tb *tablefmt.Table) float64) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchCfg()
	var last *tablefmt.Table
	for i := 0; i < b.N; i++ {
		cfg.Seed = 2010 + uint64(i)
		last = e.Run(cfg)
	}
	if last != nil {
		b.ReportMetric(pick(last), metricName)
	}
}

// BenchmarkE1LowerBound regenerates the Claim 2 table; metric: the
// distinguished player's error on the adversarial instance (bound: D/4).
func BenchmarkE1LowerBound(b *testing.B) {
	runExperimentBench(b, "E1", "bbudget_err", func(tb *tablefmt.Table) float64 { return cell(tb, 0, 2) })
}

// BenchmarkE2Sampling regenerates the Lemma 6 table; metric: 1 if close and
// far pairs were separated on the sample.
func BenchmarkE2Sampling(b *testing.B) {
	runExperimentBench(b, "E2", "separated", func(tb *tablefmt.Table) float64 { return cell(tb, 0, 6) })
}

// BenchmarkE3RSelect regenerates the Theorem 3 table; metric: output
// distance over best-candidate distance (bound: O(1)).
func BenchmarkE3RSelect(b *testing.B) {
	runExperimentBench(b, "E3", "ratio", func(tb *tablefmt.Table) float64 { return cell(tb, len(tb.Rows)-1, 3) })
}

// BenchmarkE4ZeroRadius regenerates the Theorem 4 table; metric: exact
// recovery fraction (bound: 1 whp).
func BenchmarkE4ZeroRadius(b *testing.B) {
	runExperimentBench(b, "E4", "exact_frac", func(tb *tablefmt.Table) float64 { return cell(tb, 0, 2) })
}

// BenchmarkE5SmallRadius regenerates the Theorem 5 table; metric: max error
// at the largest planted diameter (bound: 5D).
func BenchmarkE5SmallRadius(b *testing.B) {
	runExperimentBench(b, "E5", "max_err", func(tb *tablefmt.Table) float64 { return cell(tb, len(tb.Rows)-1, 1) })
}

// BenchmarkE6Clustering regenerates the Lemma 7–9 table; metric: cluster
// diameter over planted diameter (bound: O(1)).
func BenchmarkE6Clustering(b *testing.B) {
	runExperimentBench(b, "E6", "diam_over_D", func(tb *tablefmt.Table) float64 { return cell(tb, 0, 7) })
}

// BenchmarkE7ProbeComplexity regenerates the Lemma 10–11 table; metric:
// protocol probes over probe-all at the largest n in the sweep.
func BenchmarkE7ProbeComplexity(b *testing.B) {
	runExperimentBench(b, "E7", "core_over_all", func(tb *tablefmt.Table) float64 { return cell(tb, len(tb.Rows)-1, 4) })
}

// BenchmarkE8HonestAccuracy regenerates the Lemma 12 table; metric:
// approximation ratio vs the planted optimum (bound: O(1)).
func BenchmarkE8HonestAccuracy(b *testing.B) {
	runExperimentBench(b, "E8", "approx_ratio", func(tb *tablefmt.Table) float64 { return cell(tb, 0, 4) })
}

// BenchmarkE9Byzantine regenerates the Theorem 14 table; metric: worst max
// error across strategies at the tolerance (bound: honest-run level).
func BenchmarkE9Byzantine(b *testing.B) {
	runExperimentBench(b, "E9", "worst_max_err", func(tb *tablefmt.Table) float64 {
		worst := 0.0
		for r := range tb.Rows {
			if v := cell(tb, r, 3); v > worst && cell(tb, r, 2) <= 1 {
				worst = v
			}
		}
		return worst
	})
}

// BenchmarkE10Comparison regenerates the prior-art comparison; metric:
// baseline probes over protocol probes (the paper's B vs B² separation).
func BenchmarkE10Comparison(b *testing.B) {
	runExperimentBench(b, "E10", "probe_ratio", func(tb *tablefmt.Table) float64 { return cell(tb, len(tb.Rows)-1, 3) })
}

// BenchmarkE11Election regenerates the Feige election table; metric:
// honest-leader rate at 1/3 dishonest under the rushing greedy attack.
func BenchmarkE11Election(b *testing.B) {
	runExperimentBench(b, "E11", "honest_rate", func(tb *tablefmt.Table) float64 { return cell(tb, len(tb.Rows)-1, 1) })
}

// BenchmarkE12Extensions regenerates the §8 extension table; metric: the
// multival max L1 error (bound: 3D).
func BenchmarkE12Extensions(b *testing.B) {
	runExperimentBench(b, "E12", "multival_err", func(tb *tablefmt.Table) float64 { return cell(tb, 0, 2) })
}

// BenchmarkE13Conjecture regenerates the §8-conjecture table; metric: the
// 90th-percentile error-over-radius ratio (conjectured ≥ Ω(1), measured ≲1).
func BenchmarkE13Conjecture(b *testing.B) {
	runExperimentBench(b, "E13", "err_over_radius_p90", func(tb *tablefmt.Table) float64 { return cell(tb, 0, 5) })
}

// --- substrate micro-benchmarks -------------------------------------------

// BenchmarkHammingDistance measures the hot path of every protocol phase:
// word-parallel Hamming distance between 1024-bit vectors.
func BenchmarkHammingDistance(b *testing.B) {
	rng := xrand.New(1)
	in := prefgen.Uniform(rng, 2, 1024)
	x, y := in.Truth[0], in.Truth[1]
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += x.Hamming(y)
	}
	_ = s
}

// BenchmarkNeighborGraph measures the n² pairwise clustering step at
// n=512 over 128-bit sample vectors.
func BenchmarkNeighborGraph(b *testing.B) {
	rng := xrand.New(2)
	in := prefgen.DiameterClusters(rng, 512, 128, 64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraphSink = buildGraphForBench(in.Truth)
	}
}

var benchGraphSink any

func buildGraphForBench(z []bitvec.Vector) any {
	type adj struct{ rows int }
	count := 0
	for p := 0; p < len(z); p++ {
		for q := p + 1; q < len(z); q++ {
			if z[p].Hamming(z[q]) <= 32 {
				count++
			}
		}
	}
	return adj{rows: count}
}

// BenchmarkProbeWord measures the bulk probe path: up to 64 probes settled
// per op with one CAS and one atomic add (DESIGN.md §10). Compare with
// BenchmarkProbeThroughput, which pays the per-bit path once per probe.
func BenchmarkProbeWord(b *testing.B) {
	rng := xrand.New(4)
	in := prefgen.Uniform(rng, 4, 1<<16)
	w := world.New(in.Truth)
	words := w.ProbeWords()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += w.ProbeWord(i%4, i%words, ^uint64(0))
	}
	_ = sink
}

// BenchmarkFrozenMajorityWord measures the word-level workshare tally: one
// 64-object majority over 64 voters per op, bit-sliced (DESIGN.md §10).
func BenchmarkFrozenMajorityWord(b *testing.B) {
	const n, m = 64, 4096
	bd := board.New(n, m)
	rng := xrand.New(5)
	for p := 0; p < n; p++ {
		for wi := 0; wi < m/64; wi++ {
			bd.WriteWord(p, wi, rng.Uint64(), rng.Uint64())
		}
	}
	f := bd.Freeze()
	players := make([]int, n)
	for i := range players {
		players[i] = i
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.MajorityWord(i%(m/64), players)
	}
	_ = sink
}

// BenchmarkProbeThroughput measures the concurrent probe path (per-player
// memoized counters) under parallel load.
func BenchmarkProbeThroughput(b *testing.B) {
	rng := xrand.New(3)
	in := prefgen.Uniform(rng, 64, 4096)
	w := world.New(in.Truth)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			w.Probe(i%64, (i*31)%4096)
			i++
		}
	})
}

// BenchmarkFullProtocol measures one end-to-end honest run at n=512 with a
// single correct diameter guess (the E8 configuration).
func BenchmarkFullProtocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := collabscore.NewSimulation(collabscore.Config{Players: 512, Budget: 8, Seed: uint64(i), FixedDiameter: 32})
		sim.PlantClusters(64, 32)
		rep := sim.Run()
		if i == b.N-1 {
			b.ReportMetric(float64(rep.MaxError), "max_err")
			b.ReportMetric(float64(rep.MaxProbes), "max_probes")
		}
	}
}

// BenchmarkFullByzantine measures the end-to-end §7 protocol at n=512 with
// tolerance-level corruption.
func BenchmarkFullByzantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := collabscore.NewSimulation(collabscore.Config{Players: 512, Budget: 8, Seed: uint64(i), FixedDiameter: 32})
		sim.PlantClusters(64, 32)
		sim.Corrupt(sim.Tolerance(), collabscore.RandomLiar)
		rep := sim.RunByzantine()
		if i == b.N-1 {
			b.ReportMetric(float64(rep.MaxError), "max_err")
		}
	}
}

// BenchmarkRunByzantine measures the Byzantine wrapper under the schedules
// a run can take (DESIGN.md §9): fully serial (PhaseSerial: repetitions
// and phase loops one at a time), two fixed phase workers (PhaseWorkers)
// with concurrent repetitions, and both layers concurrent on every core
// (the default configuration). All produce byte-identical fixed-seed
// output; only wall clock differs. The k=8 matrix runs at
// n ∈ {256, 1024, 4096} with tolerance-level corruption; the 1rep group is
// the single-repetition workload (core.Run-like: FixedDiameter sweeps,
// §8 extensions) where only phase-level parallelism can help. See
// README.md for a recorded table and DESIGN.md §8 for methodology.
func BenchmarkRunByzantine(b *testing.B) {
	schedules := []struct {
		name    string
		serial  bool
		workers int
	}{
		{"serial", true, 0},
		{"fixed2", false, 2},
		{"both-parallel", false, 0},
	}
	run := func(b *testing.B, n, k int, serial bool, workers int) {
		for i := 0; i < b.N; i++ {
			sim := collabscore.NewSimulation(collabscore.Config{Players: n, Budget: 8, Seed: uint64(i), FixedDiameter: n / 32})
			sim.PlantClusters(n/8, n/32)
			sim.Corrupt(sim.Tolerance(), collabscore.ClusterHijackers)
			sim.Params().ByzIterations = k
			sim.Params().PhaseSerial = serial
			sim.Params().PhaseWorkers = workers
			rep := sim.RunByzantine()
			if i == b.N-1 {
				b.ReportMetric(float64(rep.MaxError), "max_err")
				b.ReportMetric(float64(rep.HonestLeaders), "honest_leaders")
			}
		}
	}
	for _, n := range []int{256, 1024, 4096} {
		for _, sc := range schedules {
			b.Run(fmt.Sprintf("n=%d/%s", n, sc.name), func(b *testing.B) {
				run(b, n, 8, sc.serial, sc.workers)
			})
		}
	}
	// Single repetition at n=1024: the acceptance workload for phase-level
	// parallelism (repetition-level parallelism is a no-op at k=1).
	for _, sc := range []struct {
		name        string
		phaseSerial bool
	}{{"phases-serial", true}, {"phases-parallel", false}} {
		b.Run("1rep/n=1024/"+sc.name, func(b *testing.B) {
			run(b, 1024, 1, sc.phaseSerial, 0)
		})
	}
}

// BenchmarkScalingN prints the probe-scaling series (the E7 shape) as
// sub-benchmarks over n.
func BenchmarkScalingN(b *testing.B) {
	for _, n := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := collabscore.NewSimulation(collabscore.Config{Players: n, Budget: 8, Seed: uint64(i), FixedDiameter: n / 32})
				sim.PlantClusters(n/8, n/32)
				rep := sim.Run()
				if i == b.N-1 {
					b.ReportMetric(float64(rep.MaxProbes), "max_probes")
					b.ReportMetric(float64(rep.MaxProbes)/float64(n), "probes_over_m")
				}
			}
		})
	}
}
