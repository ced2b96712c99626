package main

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"time"

	"collabscore"
	"collabscore/internal/analysis"
	"collabscore/internal/election"
	"collabscore/internal/sweep"
	"collabscore/internal/xrand"
)

// budget is the paper's B on every workload.
const budget = 8

// errConst is the constant c of analysis.ProtocolErrorBound: the worst
// honest error of every clustering-protocol run must stay within c·D for
// the planted D.
const errConst = 2

// workload is one named benchmark input with its two passes.
type workload struct {
	name    string
	measure func(w io.Writer, o options) (result, error)
	traced  func(w io.Writer, o options) (result, error)
}

// The workloads. Each exists to stress different layers; README.md records
// why each was chosen and which end-to-end metric each layer should move.
var workloads = []workload{
	byzDefault.workload(),
	lazyOneDiam.workload(),
	{name: "sweep-grid", measure: measureSweep, traced: tracedSweep},
}

func workloadNames() []string {
	var out []string
	for _, wl := range workloads {
		out = append(out, wl.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// protoShape is the instance one protocol workload runs on.
type protoShape struct {
	n, clusterSize, diameter, dishonest int
	strategy                            collabscore.Strategy
	// fixedD, when positive, restricts the doubling loop to that guess.
	fixedD       int
	truth, index string
}

// protoWorkload makes one protocol call per closed-loop run.
type protoWorkload struct {
	name      string
	byzantine bool
	full      protoShape
	tiny      protoShape
	// worlds is how many distinct worlds one measurement cycles through.
	// Where the work a world takes varies from instance to instance, more
	// worlds make the figures steadier from seed to seed.
	worlds int
}

// byzDefault is the paper's full Theorem 14 protocol as users run it: every
// diameter guess, the §6.1 easy case included, exact index, dense truth,
// 42 = n/(3B) cluster hijackers.
var byzDefault = protoWorkload{
	name:      "byz-default",
	byzantine: true,
	full:      protoShape{n: 1024, clusterSize: 128, diameter: 32, dishonest: 42, strategy: collabscore.ClusterHijackers},
	tiny:      protoShape{n: 128, clusterSize: 32, diameter: 4, dishonest: 5, strategy: collabscore.ClusterHijackers},
	worlds:    1,
}

// honestLeaders is the number of a Byzantine run's elections an honest
// leader must win. A dishonest-leader repetition runs no protocol, so
// without this the run time would be a lottery over seeds (about 20 % of
// elections go to the rushing adversary at n/(3B) corruption); see
// worldSeeds. Four of the five is the most likely outcome, and it runs
// both the honest-leader protocol and the adversarial worst case, whose
// candidates the final select must reject.
const honestLeaders = 4

// lazyOneDiam is one sampled diameter guess on a large lazy world with the
// sparse LSH index and honest shared randomness: no easy case, no election,
// no final Byzantine select, and every probe through the lazy truth path.
var lazyOneDiam = protoWorkload{
	name: "lazy-onediam",
	full: protoShape{n: 8192, clusterSize: 1024, diameter: 256, dishonest: 341, strategy: collabscore.Colluders,
		fixedD: 256, truth: "lazy", index: "lsh+sparse"},
	tiny: protoShape{n: 512, clusterSize: 128, diameter: 32, dishonest: 21, strategy: collabscore.Colluders,
		fixedD: 32, truth: "lazy", index: "lsh+sparse"},
	// Allocation and probe counts vary by about ±7 % and ±4 % between
	// instances at this size; four worlds per measurement steady them.
	worlds: 4,
}

func (pw protoWorkload) workload() workload {
	return workload{name: pw.name, measure: pw.measure, traced: pw.traced}
}

func (pw protoWorkload) shape(o options) protoShape {
	if o.tiny {
		return pw.tiny
	}
	return pw.full
}

func (pw protoWorkload) config(sh protoShape, seed uint64) collabscore.Config {
	return collabscore.Config{Players: sh.n, Budget: budget, Seed: seed,
		FixedDiameter: sh.fixedD, TruthSource: sh.truth, NeighborIndex: sh.index}
}

// build is the workload's set-up through the public API.
func (pw protoWorkload) build(sh protoShape, seed uint64) *collabscore.Simulation {
	return collabscore.NewSimulation(pw.config(sh, seed)).
		PlantClusters(sh.clusterSize, sh.diameter).
		Corrupt(sh.dishonest, sh.strategy)
}

// execute is one protocol run through the public API.
func (pw protoWorkload) execute(sim *collabscore.Simulation) *collabscore.Report {
	if pw.byzantine {
		return sim.RunByzantine()
	}
	return sim.Run()
}

// maxSeedTries bounds the search of worldSeeds.
const maxSeedTries = 64

// worldSeeds returns the Config seeds of the workload's worlds for the
// benchmark seed: the first pw.worlds of seed·64, seed·64+1, … that
// qualify. On an honest-randomness workload every one qualifies; on the
// Byzantine workload one qualifies when its elections give exactly
// honestLeaders honest leaders. The elections are replayed from outside
// with the streams Simulation.RunByzantine draws them from (root split 11,
// repetition split 0xE1EC); every run's check confirms the replay by
// comparing the report's honest-leader count.
func (pw protoWorkload) worldSeeds(sh protoShape, seed uint64) ([]uint64, error) {
	var out []uint64
	for j := uint64(0); j < maxSeedTries && len(out) < pw.worlds; j++ {
		ws := seed*maxSeedTries + j
		if !pw.byzantine {
			out = append(out, ws)
			continue
		}
		sim := pw.build(sh, ws)
		pr := sim.Params()
		trueRng := xrand.New(ws).Split(11)
		honest := 0
		for it := 0; it < pr.ByzIterations; it++ {
			el := election.Run(sim.World(), trueRng.Split(0xE1EC, uint64(it)), nil, pr.Election)
			if sim.World().IsHonest(el.Leader) {
				honest++
			}
		}
		if honest == honestLeaders {
			out = append(out, ws)
		}
	}
	if len(out) < pw.worlds {
		return nil, fmt.Errorf("%s: fewer than %d of %d worlds derived from seed %d elect %d honest leaders",
			pw.name, pw.worlds, maxSeedTries, seed, honestLeaders)
	}
	return out, nil
}

// errBound is the largest worst-honest error a correct run may show.
func (pw protoWorkload) errBound(sh protoShape) int {
	return int(analysis.ProtocolErrorBound(sh.diameter, errConst))
}

// check returns the output checks rep fails, if any. It recomputes the
// worst honest error and probe count from the outputs, the truth and the
// world's probe counters instead of trusting the report's summary.
func (pw protoWorkload) check(sh protoShape, sim *collabscore.Simulation, rep *collabscore.Report) []string {
	w := sim.World()
	if len(rep.Outputs) != sh.n {
		return []string{fmt.Sprintf("outputs for %d players, want %d", len(rep.Outputs), sh.n)}
	}
	var bad []string
	maxErr, maxProbes, totalProbes, honest := 0, int64(0), int64(0), 0
	for p, out := range rep.Outputs {
		if !w.IsHonest(p) {
			continue
		}
		honest++
		totalProbes += w.Probes(p)
		truth := w.TruthVector(p)
		if out.Len() != truth.Len() {
			return append(bad, fmt.Sprintf("player %d output has %d objects, want %d", p, out.Len(), truth.Len()))
		}
		e := 0
		for wi := 0; wi < out.Words(); wi++ {
			e += bits.OnesCount64(out.Word(wi) ^ truth.Word(wi))
		}
		maxErr = max(maxErr, e)
		maxProbes = max(maxProbes, w.Probes(p))
	}
	meanProbes := float64(totalProbes) / float64(max(honest, 1))
	if maxErr != rep.MaxError || maxProbes != rep.MaxProbes || meanProbes != rep.MeanProbes {
		bad = append(bad, fmt.Sprintf("report says max_error %d max_probes %d mean_probes %g, outputs and counters give %d, %d and %g",
			rep.MaxError, rep.MaxProbes, rep.MeanProbes, maxErr, maxProbes, meanProbes))
	}
	if b := pw.errBound(sh); maxErr > b {
		bad = append(bad, fmt.Sprintf("max_error %d > bound %d", maxErr, b))
	}
	if maxProbes > int64(sh.n) {
		bad = append(bad, fmt.Sprintf("max_probes %d > m = %d", maxProbes, sh.n))
	}
	if pw.byzantine && rep.HonestLeaders != honestLeaders {
		bad = append(bad, fmt.Sprintf("%d honest leaders, the replayed elections gave %d", rep.HonestLeaders, honestLeaders))
	}
	return bad
}

// reportDigest hashes everything a run reports that must repeat exactly
// for one seed: outputs, probe and traffic counters, election outcomes and
// per-guess statistics.
func reportDigest(rep *collabscore.Report) string {
	d := newDigest()
	d.vectors(rep.Outputs)
	d.ints(int64(rep.MaxError), rep.MaxProbes, rep.TotalProbes, int64(math.Float64bits(rep.MeanProbes)), rep.CommWrites, rep.CommReads,
		int64(rep.HonestLeaders), int64(rep.Repetitions))
	for _, it := range rep.Iterations {
		d.ints(int64(it.D), int64(it.SampleSize), int64(it.Clusters), int64(it.MinCluster), int64(it.Unassigned))
	}
	return d.sum()
}

// sample is one closed-loop run.
type sample struct {
	// setup is the run's own set-up time (0 where set-up is measured
	// apart from the runs).
	setup, wall, allocMB, retainedMB float64
	maxError, maxProbes              int64
	// meanProbes is the mean honest probe count (on sweep-grid, the mean
	// over points of each point's mean).
	meanProbes float64
	attempted  int
	// failures lists the checks this run failed, one entry per failed
	// run or point.
	failures []string
}

// closedLoop calls fn(0), fn(1), … back to back, each call starting when
// the previous one ended, until another call of median length would
// overrun seconds; it makes at least minRuns calls. Every call starts from
// a collected heap.
func closedLoop(seconds float64, minRuns int, fn func(i int) sample) []sample {
	start := time.Now()
	var out []sample
	var took []float64
	for i := 0; ; i++ {
		t := time.Now()
		runtime.GC()
		out = append(out, fn(i))
		took = append(took, since(t))
		if len(out) >= minRuns && since(start)+median(took) > seconds {
			return out
		}
	}
}

// protect runs fn, turning a panic into a failure message.
func protect(fn func()) (failure string) {
	defer func() {
		if r := recover(); r != nil {
			failure = fmt.Sprintf("panic: %v", r)
		}
	}()
	fn()
	return ""
}

// setupReps is how many set-ups a protocol measurement times before its
// closed loop, round-robin over its worlds, on top of each run's own.
const setupReps = 12

// measure runs the closed loop: each run sets up its world (run i uses the
// i mod worlds'th) and then makes one protocol call on it, and every world
// runs at least twice, so the digest check compares each world's runs.
// setup_s is the median over the runs' set-ups and setupReps more.
func (pw protoWorkload) measure(w io.Writer, o options) (result, error) {
	sh := pw.shape(o)
	seeds, err := pw.worldSeeds(sh, o.seed)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		sim := pw.build(sh, seeds[i%len(seeds)])
		setups = append(setups, since(t))
		runtime.KeepAlive(sim)
	}
	first := make([]string, len(seeds))
	var leaders []int
	samples := closedLoop(o.seconds, 2*len(seeds), func(i int) sample {
		k := i % len(seeds)
		t := time.Now()
		sim := pw.build(sh, seeds[k])
		s := sample{setup: since(t), attempted: 1}
		var rep *collabscore.Report
		a0 := heapAllocs()
		t = time.Now()
		fail := protect(func() { rep = pw.execute(sim) })
		s.wall, s.allocMB = since(t), (heapAllocs()-a0)/mb
		s.retainedMB = retainedAfterGC() / mb
		if fail != "" {
			s.failures = []string{fail}
			return s
		}
		s.maxError, s.maxProbes, s.meanProbes = int64(rep.MaxError), rep.MaxProbes, rep.MeanProbes
		dg := reportDigest(rep)
		if first[k] == "" {
			first[k] = dg
		} else if dg != first[k] {
			s.failures = append(s.failures, "output digest differs from an earlier run of the same world")
		}
		s.failures = append(s.failures, pw.check(sh, sim, rep)...)
		leaders = append(leaders, rep.HonestLeaders)
		runtime.KeepAlive(rep)
		runtime.KeepAlive(sim)
		return s
	})
	fmt.Fprintf(w, "info world_seeds=%v honest_leaders_per_run=%v error_bound=%d m=%d\n", seeds, leaders, pw.errBound(sh), sh.n)
	for _, s := range samples {
		setups = append(setups, s.setup)
	}
	return summarize(w, samples, setups), nil
}

// endToEnd are the end-to-end metrics with a bound in BENCHMARK.json: the
// ones a measuring run's last line carries.
var endToEnd = []struct{ name, unit string }{
	{"run_s", "s"}, {"setup_s", "s"}, {"alloc_MB", "MB"}, {"retained_MB", "MB"}, {"max_probes", "count"},
	{"mean_probes", "count"},
}

// summarize turns closed-loop samples into the end-to-end metrics. The
// last line carries the ones with a bound in BENCHMARK.json; the report
// lines before it print every end-to-end metric, those without a bound
// too. extra holds workload-specific report lines.
func summarize(w io.Writer, samples []sample, setups []float64, extra ...string) result {
	var walls, allocs, retained, probes, meanProbes []float64
	res := result{Metrics: map[string]metric{}}
	var maxErr int64
	for i, s := range samples {
		walls = append(walls, s.wall)
		allocs = append(allocs, s.allocMB)
		retained = append(retained, s.retainedMB)
		probes = append(probes, float64(s.maxProbes))
		meanProbes = append(meanProbes, s.meanProbes)
		res.Attempted += s.attempted
		res.Failed += len(s.failures)
		for _, f := range s.failures {
			fmt.Fprintf(w, "check FAILED run %d: %s\n", i, f)
		}
		maxErr = max(maxErr, s.maxError)
	}
	res.Correct = res.Failed == 0
	q1, med, q3 := quartiles(walls)
	setup := median(setups)
	vals := map[string]float64{"run_s": med, "setup_s": setup, "alloc_MB": mean(allocs),
		"retained_MB": median(retained), "max_probes": mean(probes), "mean_probes": mean(meanProbes)}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	fmt.Fprintf(w, "e2e run_s        median=%.4f q1=%.4f q3=%.4f s over %d runs %s\n", med, q1, q3, len(samples), fmtList(walls))
	for _, ln := range extra {
		fmt.Fprintln(w, ln)
	}
	fmt.Fprintf(w, "e2e setup_s      median=%.6f s over %d set-ups %s\n", setup, len(setups), fmtList(setups))
	fmt.Fprintf(w, "e2e alloc_MB     mean=%.2f MB %s\n", mean(allocs), fmtList(allocs))
	fmt.Fprintf(w, "e2e retained_MB  median=%.3f MB\n", median(retained))
	fmt.Fprintf(w, "e2e max_error    %d count\n", maxErr)
	fmt.Fprintf(w, "e2e max_probes   mean=%.1f count %s\n", mean(probes), fmtList(probes))
	fmt.Fprintf(w, "e2e mean_probes  mean=%.3f count %s\n", mean(meanProbes), fmtList(meanProbes))
	fmt.Fprintf(w, "e2e fail_frac    %.4f share (%d of %d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res
}

// fmtList renders xs compactly for the report.
func fmtList(xs []float64) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	b.WriteByte(']')
	return b.String()
}

// sweepN is the player count of every sweep-grid point (tiny: sweepTinyN).
const (
	sweepN     = 256
	sweepTinyN = 64
)

// sweepSpec is the sweep-grid workload's grid: the binary protocols and the
// §8 rating and budget protocols, honest and corrupted by colluders or
// random liars, over two planted diameters and two trials.
func sweepSpec(seed uint64, tiny bool) sweep.Spec {
	n := sweepN
	if tiny {
		n = sweepTinyN
	}
	return sweep.Spec{
		Name:         "perfbench",
		Seed:         seed,
		Trials:       2,
		Players:      []int{n},
		ClusterSizes: []int{n / 8},
		Diameters:    []int{n / 64, n / 32},
		Dishonest:    []int{0, analysis.Tolerance(n, budget)},
		Strategies:   []string{"colluders", "random-liar"},
		Protocols:    []string{"run", "byzantine", "baseline", "ratings", "budgets"},
		FixDiameter:  true,
	}
}

// sweepWorkers is the worker count of the measured grid passes.
const sweepWorkers = 2

// pointErrBound is the largest worst-honest error a correct sweep-grid
// point may show: the protocol error bound c·D with the protocol workloads'
// c for the clustering protocols (run, byzantine), and the trivial bound
// for the rest, for which analysis states no formula (m objects, times the
// rating scale for ratings).
func pointErrBound(pt sweep.Point) int {
	switch pt.Protocol {
	case "run", "byzantine":
		return int(analysis.ProtocolErrorBound(pt.Diameter, errConst))
	case "ratings":
		return pt.Objects * max(pt.Scale, 5)
	}
	return pt.Objects
}

// checkRecords returns one failure per point whose record is missing or
// fails its checks.
func checkRecords(points []sweep.Point, recs []sweep.Record) []string {
	byKey := make(map[string]sweep.Record, len(recs))
	for _, r := range recs {
		byKey[r.Key] = r
	}
	var bad []string
	for _, pt := range points {
		r, ok := byKey[pt.Key()]
		switch {
		case !ok:
			bad = append(bad, "no record for "+pt.Key())
		case r.MaxError > pointErrBound(pt):
			bad = append(bad, fmt.Sprintf("%s: max_error %d > bound %d", pt.Key(), r.MaxError, pointErrBound(pt)))
		case r.MaxProbes > int64(pt.Objects):
			bad = append(bad, fmt.Sprintf("%s: max_probes %d > m = %d", pt.Key(), r.MaxProbes, pt.Objects))
		}
	}
	return bad
}

// recordsDigest hashes the deterministic fields of every record, in key
// order.
func recordsDigest(recs []sweep.Record) string {
	sorted := append([]sweep.Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	d := newDigest()
	for _, r := range sorted {
		d.h.Write([]byte(r.Key))
		d.ints(int64(r.MaxError), r.MaxProbes, r.TotalProbes, int64(math.Float64bits(r.MeanProbes)), int64(r.HonestLeaders), int64(r.Repetitions), r.CommWrites, r.CommReads)
	}
	return d.sum()
}

// sweepSetupReps is how many grid set-ups one sweep-grid invocation
// times; one takes a few milliseconds, so the median needs many.
const sweepSetupReps = 31

// sweepSetup is one sweep-grid set-up: grid expansion, one pool per
// worker, and the set-up of every binary point's world on those pools
// (Scenario.Build: planted and corrupted, protocol not run), which the
// engine repeats inside every pass. Rating points have no binary world
// and are left out. Expansion alone takes tens of microseconds, too
// little to time steadily.
func sweepSetup(spec sweep.Spec) ([]sweep.Point, error) {
	points, err := sweep.Expand(spec)
	if err != nil {
		return nil, err
	}
	pools := make([]*collabscore.Pool, sweepWorkers)
	for i := range pools {
		pools[i] = collabscore.NewPool()
	}
	for i, pt := range points {
		if pt.Protocol == "ratings" {
			continue
		}
		sc, err := pt.Scenario()
		if err != nil {
			return nil, err
		}
		sc.Build(pools[i%len(pools)])
	}
	return points, nil
}

// runGrid makes one grid pass with the given worker count and returns the
// records and one failure per failed point.
func runGrid(points []sweep.Point, workers int, progress func(int, int, sweep.Record)) ([]sweep.Record, []string) {
	var bad []string
	recs, err := sweep.Run(points, sweep.Options{
		Workers:   workers,
		Progress:  progress,
		OnFailure: func(pt sweep.Point, err error) { bad = append(bad, err.Error()) },
	})
	if err != nil {
		bad = append(bad, err.Error())
	}
	return recs, append(bad, checkRecords(points, recs)...)
}

func measureSweep(w io.Writer, o options) (result, error) {
	spec := sweepSpec(o.seed, o.tiny)
	var points []sweep.Point
	var err error
	times := make([]float64, sweepSetupReps)
	for i := range times {
		runtime.GC()
		t := time.Now()
		points, err = sweepSetup(spec)
		times[i] = since(t)
		if err != nil {
			return result{}, err
		}
	}
	var first string
	var pps []float64
	samples := closedLoop(o.seconds, 2, func(int) sample {
		a0 := heapAllocs()
		t := time.Now()
		recs, bad := runGrid(points, sweepWorkers, nil)
		s := sample{wall: since(t), allocMB: (heapAllocs() - a0) / mb, attempted: len(points), failures: bad}
		s.retainedMB = retainedAfterGC() / mb
		pps = append(pps, float64(len(recs))/s.wall)
		for _, r := range recs {
			s.maxError = max(s.maxError, int64(r.MaxError))
			s.maxProbes = max(s.maxProbes, r.MaxProbes)
			s.meanProbes += r.MeanProbes / float64(len(recs))
		}
		dg := recordsDigest(recs)
		if first == "" {
			first = dg
		} else if dg != first {
			s.failures = append(s.failures, "record digest differs from the first pass of this seed")
		}
		runtime.KeepAlive(recs)
		return s
	})
	q1, med, q3 := quartiles(pps)
	return summarize(w, samples, times,
		fmt.Sprintf("e2e points_per_s median=%.3f q1=%.3f q3=%.3f 1/s over %d passes of %d points", med, q1, q3, len(pps), len(points))), nil
}
