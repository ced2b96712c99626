package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"collabscore"
	"collabscore/internal/adversary"
	"collabscore/internal/bitvec"
	"collabscore/internal/cluster"
	"collabscore/internal/core"
	"collabscore/internal/election"
	"collabscore/internal/metrics"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/selection"
	"collabscore/internal/smallradius"
	"collabscore/internal/sweep"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// span is one timed call into a layer's public function.
type span struct {
	name       string
	parent     int // index of the enclosing span; -1 at top level
	start, end time.Duration
	// allocMB is the heap allocated during the span. Spans never overlap
	// in time except by nesting, so the figure belongs to this call.
	allocMB float64
}

// tracer keeps a pass's spans in memory, in start order. It is used from
// one goroutine: the traced passes call layers one after another.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices of the spans now running, innermost last
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs fn inside a span named name, nested in whichever span is open.
// A nil tracer just runs fn.
func (tr *tracer) do(name string, fn func()) time.Duration {
	if tr == nil {
		t := time.Now()
		fn()
		return time.Since(t)
	}
	parent := -1
	if len(tr.open) > 0 {
		parent = tr.open[len(tr.open)-1]
	}
	i := len(tr.spans)
	tr.spans = append(tr.spans, span{name: name, parent: parent})
	tr.open = append(tr.open, i)
	a0 := heapAllocs()
	t0 := time.Since(tr.origin)
	fn()
	end := time.Since(tr.origin)
	tr.open = tr.open[:len(tr.open)-1]
	sp := &tr.spans[i]
	sp.start, sp.end, sp.allocMB = t0, end, (heapAllocs()-a0)/mb
	return end - t0
}

// total returns the summed duration and allocation of the spans named name.
func (tr *tracer) total(name string) (seconds, allocMB float64) {
	for _, sp := range tr.spans {
		if sp.name == name {
			seconds += (sp.end - sp.start).Seconds()
			allocMB += sp.allocMB
		}
	}
	return seconds, allocMB
}

// print writes every span: index, name, parent, start and end in
// milliseconds since the pass began, and allocated MB.
func (tr *tracer) print(w io.Writer) {
	for i, sp := range tr.spans {
		fmt.Fprintf(w, "span %3d %-24s parent=%3d start_ms=%10.3f end_ms=%10.3f alloc_MB=%9.3f\n",
			i, sp.name, sp.parent, ms(sp.start), ms(sp.end), sp.allocMB)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Per-layer metric names and units. Every traced pass prints all of them;
// a layer the workload does not run reads 0.
var perLayer = []struct{ name, unit string }{
	{"prefgen.plant_s", "s"}, {"world.build_s", "s"}, {"adversary.corrupt_s", "s"},
	{"world.probes", "count"}, {"world.probe_word_ns", "ns"},
	{"smallradius.full_s", "s"}, {"smallradius.full_probes", "count"}, {"smallradius.full_alloc_MB", "MB"},
	{"smallradius.sample_s", "s"},
	{"core.sample_s", "s"}, {"core.workshare_s", "s"}, {"core.rep_s", "s"},
	{"core.guesses", "count"}, {"core.easy_guesses", "count"},
	{"board.writes", "count"}, {"board.reads", "count"},
	{"cluster.s", "s"}, {"cluster.graph_s", "s"}, {"cluster.peel_s", "s"},
	{"cluster.edges", "count"}, {"cluster.clusters", "count"}, {"cluster.unassigned", "count"},
	{"selection.final_s", "s"}, {"selection.final_probes", "count"},
	{"election.s", "s"}, {"election.honest_leaders", "count"},
	{"core.point_s", "s"}, {"core.byz_point_s", "s"}, {"baseline.point_s", "s"},
	{"multival.point_s", "s"}, {"budgets.point_s", "s"}, {"sweep.alloc_MB_per_point", "MB"},
	{"par.cpu_util", "share"}, {"proc.gc_cpu_s", "s"}, {"proc.gc_cycles", "count"},
	{"zeroradius.cpu_share", "share"}, {"selection.cpu_share", "share"}, {"smallradius.cpu_share", "share"},
	{"bitvec.cpu_share", "share"}, {"world.cpu_share", "share"}, {"prefgen.cpu_share", "share"},
	{"cluster.cpu_share", "share"}, {"board.cpu_share", "share"},
	{"proc.map_cpu_share", "share"}, {"proc.gc_cpu_share", "share"},
	{"trace.wall_s", "s"}, {"trace.production_s", "s"}, {"trace.coverage", "share"},
}

// layerSet collects one traced pass's per-layer metrics and check
// failures.
type layerSet struct {
	vals     map[string]float64
	failures []string
}

func newLayerSet() *layerSet { return &layerSet{vals: map[string]float64{}} }

func (ls *layerSet) add(name string, v float64) { ls.vals[name] += v }

func (ls *layerSet) fail(format string, args ...any) {
	ls.failures = append(ls.failures, fmt.Sprintf(format, args...))
}

// result turns the set into the traced pass's last line; attempted counts
// the pass's checked calls.
func (ls *layerSet) result(w io.Writer, attempted int) result {
	res := result{Attempted: attempted, Failed: len(ls.failures), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	for _, f := range ls.failures {
		fmt.Fprintln(w, "check FAILED:", f)
	}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{ls.vals[pl.name], pl.unit}
	}
	return res
}

// profiled runs fn under the CPU profiler and records the process
// counters around it: CPU utilisation, GC time and cycles, GC time as a
// share of process CPU time, and the flat CPU shares of the profiled
// packages and of the runtime's maps. It returns fn's wall time.
func (ls *layerSet) profiled(fn func()) (float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	rt0 := readRuntime(mGCCPU, mGCCycles)
	cpu0 := procCPU()
	t := time.Now()
	fn()
	wall := since(t)
	cpu := procCPU() - cpu0
	rt1 := readRuntime(mGCCPU, mGCCycles)
	pprof.StopCPUProfile()
	ls.add("par.cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))))
	ls.add("proc.gc_cpu_s", rt1[0]-rt0[0])
	ls.add("proc.gc_cycles", rt1[1]-rt0[1])
	if cpu > 0 {
		ls.add("proc.gc_cpu_share", (rt1[0]-rt0[0])/cpu)
	}
	shares, err := flatShares(buf.Bytes())
	if err != nil {
		return 0, err
	}
	for _, pkg := range profiledPackages {
		ls.add(pkg+".cpu_share", shares[pkg])
	}
	ls.add("proc.map_cpu_share", shares["map"])
	return wall, nil
}

// tracedSetup builds the workload's world by calling the layers that
// NewSimulation, PlantClusters and Corrupt call, with the same coins
// (root splits 2 and 4 of the Config seed), each inside its own span. The
// identity check of the traced pass confirms the world is the same.
func (pw protoWorkload) tracedSetup(tr *tracer, sh protoShape, seed uint64) (*world.World, error) {
	spec, err := prefgen.ParseSourceSpec(sh.truth)
	if err != nil {
		return nil, err
	}
	root := xrand.New(seed)
	n := sh.n
	var inst *prefgen.Instance
	tr.do("prefgen.plant", func() {
		if spec.IsDense() {
			inst = prefgen.DiameterClusters(root.Split(2), n, n, sh.clusterSize, sh.diameter)
		} else {
			inst = prefgen.LazyDiameterClusters(root.Split(2), n, n, sh.clusterSize, sh.diameter, spec.Tiles)
		}
	})
	var w *world.World
	tr.do("world.build", func() { w = world.NewFrom(inst.Source()) })
	var mk func(p int) world.Behavior
	switch sh.strategy {
	case collabscore.ClusterHijackers:
		mk = func(p int) world.Behavior { return adversary.ClusterHijacker{Victim: (p + 1) % n} }
	case collabscore.Colluders:
		c := adversary.NewColluder(seed^0xC0111DE, n)
		mk = func(int) world.Behavior { return c }
	default:
		return nil, fmt.Errorf("traced set-up has no %v behaviour", sh.strategy)
	}
	tr.do("adversary.corrupt", func() { adversary.Corrupt(w, sh.dishonest, root.Split(4).Perm(n), mk) })
	return w, nil
}

// identity returns [0, 1, …, m-1].
func identity(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// repRun is one honest-leader repetition (or the single run of an
// honest-randomness workload) as the traced pass saw it.
type repRun struct {
	it     int
	shared *xrand.Stream
	stats  []core.IterationStats
	wall   float64
}

// tracedProtocol runs the workload's protocol on w with spans around each
// public call: core.Run for an honest-randomness run; for the Byzantine
// workload, core.RunByzantineOver driven with callbacks that run core.Run
// per honest-leader repetition (exactly what the production wrapper runs),
// the worst-case complement per dishonest-leader repetition, and
// selection.RSelect per player for the final select. Repetitions run one
// after another so spans do not overlap; the wrapper merges them the same
// way under either schedule.
func (pw protoWorkload) tracedProtocol(tr *tracer, ls *layerSet, w *world.World, pr core.Params, seed uint64) (*core.Result, []repRun) {
	root := xrand.New(seed)
	if !pw.byzantine {
		var r *core.Result
		shared := root.Split(10)
		d := tr.do("core.run", func() { r = core.Run(w, shared, pr) })
		return r, []repRun{{it: 0, shared: shared, stats: r.Iterations, wall: d.Seconds()}}
	}
	n, m := w.N(), w.M()
	exec := par.Sched(pr.PhaseSerial, pr.PhaseWorkers)
	k := pr.ByzIterations
	var reps []repRun
	res := &core.Result{}
	out, stats := core.RunByzantineOver(w, root.Split(11), core.ByzProtocol[bitvec.Vector]{
		Repetitions: k,
		Serial:      true,
		Election:    pr.Election,
		RunRep: func(it int, shared *xrand.Stream, st *core.RepetitionStats) []bitvec.Vector {
			var r *core.Result
			d := tr.do("core.rep", func() { r = core.Run(w, shared, pr) })
			st.Iterations, st.BoardWrites, st.BoardReads = r.Iterations, r.BoardWrites, r.BoardReads
			reps = append(reps, repRun{it: it, shared: shared, stats: r.Iterations, wall: d.Seconds()})
			return r.Output
		},
		Adversarial: func(int) []bitvec.Vector {
			adv := make([]bitvec.Vector, n)
			tr.do("core.adversarial", func() {
				for p := range adv {
					adv[p] = w.TruthVector(p).Not()
				}
			})
			return adv
		},
		SelectFinal: func(rng *xrand.Stream, outputs [][]bitvec.Vector) []bitvec.Vector {
			final := make([]bitvec.Vector, n)
			p0 := w.TotalProbes()
			d := tr.do("selection.final", func() {
				all := identity(m)
				exec.For(n, func(p int) {
					if !w.IsHonest(p) {
						final[p] = bitvec.New(m)
						return
					}
					cands := make([]bitvec.Vector, k)
					for it := range cands {
						cands[it] = outputs[it][p]
					}
					final[p] = cands[selection.RSelect(w, p, all, cands, rng.Split(0xFE11, uint64(p)), pr.Sel)]
				})
			})
			ls.add("selection.final_s", d.Seconds())
			ls.add("selection.final_probes", float64(w.TotalProbes()-p0))
			return final
		},
	})
	res.Output, res.Reps = out, stats
	for _, st := range stats {
		if st.HonestLeader {
			res.HonestLeaders++
			res.Iterations = st.Iterations
		}
		res.BoardWrites += st.BoardWrites
		res.BoardReads += st.BoardReads
	}
	return res, reps
}

// replayLayers calls, on a fresh world, the layers core.Run runs inside
// itself that no span around core.Run can separate, with core's coin
// splits for each repetition and diameter guess: smallradius.Run on all
// objects for the easy-case guesses, and for the sampled guesses
// smallradius.Run on the sample, then the neighbor graph and the peel. It
// checks each sampled guess's sample size, cluster count and unassigned
// count against the production run's IterationStats.
func (pw protoWorkload) replayLayers(tr *tracer, ls *layerSet, w *world.World, pr core.Params, reps []repRun) {
	n, m := w.N(), w.M()
	exec := par.Sched(pr.PhaseSerial, pr.PhaseWorkers)
	all := identity(m)
	for _, rp := range reps {
		for gi, d := range pr.DiameterGuesses(n) {
			st := rp.stats[gi]
			iter := rp.shared.Split(uint64(gi), uint64(d))
			rc := world.NewRunOn(w, exec)
			rc.Pub.TargetDiameter = d
			if st.UsedFullSR {
				rc.Pub.Phase = "smallradius-full"
				p0 := w.TotalProbes()
				tr.do("smallradius.full", func() { smallradius.Run(rc, all, d, pr.B, iter.Split(0xF0), pr.SR) })
				ls.add("smallradius.full_probes", float64(w.TotalProbes()-p0))
				continue
			}
			sample := iter.Split(0x5A).BernoulliSubset(m, pr.SampleProb(n, d))
			if len(sample) == 0 {
				sample = []int{0}
			}
			rc.Pub.SetSample(sample)
			rc.Pub.Phase = "smallradius"
			var zMap map[int]bitvec.Vector
			tr.do("smallradius.sample", func() {
				zMap = smallradius.Run(rc, sample, pr.SampleDiameter(n), pr.B, iter.Split(0x5B), pr.SR)
			})
			z := make([]bitvec.Vector, n)
			for p := range z {
				z[p] = zMap[p]
			}
			var g cluster.Graph
			tr.do("cluster.graph", func() { g = pr.NeighborIndex.BuildGraph(exec, z, pr.EdgeThreshold(n), iter.Split(0x5D)) })
			var cl *cluster.Clustering
			tr.do("cluster.peel", func() { cl = cluster.BuildOn(exec, g, pr.MinClusterSize(n)) })
			edges := 0
			for p := 0; p < n; p++ {
				edges += g.Degree(p)
			}
			ls.add("cluster.edges", float64(edges/2))
			if len(sample) != st.SampleSize || len(cl.Clusters) != st.NumClusters || len(cl.Unassigned()) != st.Unassigned {
				ls.fail("replay of repetition %d guess D=%d: sample %d clusters %d unassigned %d, production %d %d %d",
					rp.it, d, len(sample), len(cl.Clusters), len(cl.Unassigned()), st.SampleSize, st.NumClusters, st.Unassigned)
			}
		}
	}
}

// probeWordNs times World.ProbeWord over the world's own truth: a probe
// pass over every object word of up to 1024 players, from a reset memo.
func probeWordNs(w *world.World) float64 {
	w.ResetProbes()
	players := min(w.N(), 1024)
	calls := 0
	var sink uint64
	t := time.Now()
	for p := 0; p < players; p++ {
		for wi := 0; wi < w.ProbeWords(); wi++ {
			sink ^= w.ProbeWord(p, wi, ^uint64(0))
			calls++
		}
	}
	ns := float64(time.Since(t).Nanoseconds()) / float64(calls)
	runtime.KeepAlive(sink)
	w.ResetProbes()
	return ns
}

// sameOutputs reports whether two output lists are identical bit for bit.
func sameOutputs(a, b []bitvec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// minCoverage is the least share of the traced protocol's wall time the
// timed phases of a full-size protocol workload must cover.
const minCoverage = 0.95

func (pw protoWorkload) traced(w io.Writer, o options) (result, error) {
	sh := pw.shape(o)
	seeds, err := pw.worldSeeds(sh, o.seed)
	if err != nil {
		return result{}, err
	}
	ws := seeds[0]
	ls := newLayerSet()

	// The production call through the public API, untraced: the reference
	// the traced pass must reproduce, and the wall time tracing adds to.
	sim := pw.build(sh, ws)
	var ref *collabscore.Report
	t := time.Now()
	if f := protect(func() { ref = pw.execute(sim) }); f != "" {
		ls.fail("production run: %s", f)
		return ls.result(w, 1), nil
	}
	ls.add("trace.production_s", since(t))
	ls.failures = append(ls.failures, pw.check(sh, sim, ref)...)
	pr := *sim.Params()
	sim = nil
	runtime.GC()

	tr := newTracer()
	wA, err := pw.tracedSetup(tr, sh, ws)
	if err != nil {
		return result{}, err
	}
	var res *core.Result
	var reps []repRun
	var traced time.Duration
	wall, err := ls.profiled(func() {
		res, reps = pw.tracedProtocol(tr, ls, wA, pr, ws)
		traced = time.Since(tr.origin)
	})
	if err != nil {
		return result{}, err
	}
	ls.add("trace.wall_s", wall)

	// Span coverage, for information: the share of the traced pass up to
	// the protocol call's end — set-up and protocol — that its top-level
	// spans cover. The gate is on the phase coverage below, which the
	// spans around whole core.Run calls cannot satisfy by themselves.
	var top time.Duration
	for _, sp := range tr.spans {
		if sp.parent < 0 {
			top += sp.end - sp.start
		}
	}
	fmt.Fprintf(w, "info span_coverage=%.4f\n", top.Seconds()/traced.Seconds())

	// Identity: the traced pass computed what the production call did.
	es, ps := metrics.Error(wA, res.Output), metrics.Probes(wA)
	if !sameOutputs(res.Output, ref.Outputs) || es.Max != ref.MaxError || ps.Max != ref.MaxProbes ||
		ps.Total != ref.TotalProbes || res.BoardWrites != ref.CommWrites || res.BoardReads != ref.CommReads ||
		res.HonestLeaders != ref.HonestLeaders || len(res.Iterations) != len(ref.Iterations) {
		ls.fail("traced pass differs from the production call")
	} else {
		for i, it := range res.Iterations {
			ri := ref.Iterations[i]
			if it.D != ri.D || it.SampleSize != ri.SampleSize || it.NumClusters != ri.Clusters || it.Unassigned != ri.Unassigned {
				ls.fail("traced guess %d statistics differ from the production call", i)
			}
		}
	}
	ls.add("world.probes", float64(ps.Total))

	// Layers inside core.Run, from the program's own per-guess counters.
	for _, rp := range reps {
		for _, st := range rp.stats {
			ls.add("core.guesses", 1)
			if st.UsedFullSR {
				ls.add("core.easy_guesses", 1)
			}
			ls.add("core.sample_s", st.SampleTime.Seconds())
			ls.add("smallradius.sample_s", st.SRTime.Seconds())
			ls.add("cluster.s", st.ClusterTime.Seconds())
			ls.add("core.workshare_s", st.WorkshareTime.Seconds())
			ls.add("cluster.clusters", float64(st.NumClusters))
			ls.add("cluster.unassigned", float64(st.Unassigned))
			ls.add("board.writes", float64(st.BoardWrites))
			ls.add("board.reads", float64(st.BoardReads))
		}
		ls.add("core.rep_s", rp.wall)
	}

	// Elections, replayed with the wrapper's streams; the leaders must be
	// the ones the traced wrapper elected.
	if pw.byzantine {
		trueRng := xrand.New(ws).Split(11)
		for it, st := range res.Reps {
			var el election.Result
			d := tr.do("election", func() { el = election.Run(wA, trueRng.Split(0xE1EC, uint64(it)), nil, pr.Election) })
			ls.add("election.s", d.Seconds())
			if wA.IsHonest(el.Leader) {
				ls.add("election.honest_leaders", 1)
			}
			if el.Leader != st.Leader {
				ls.fail("replayed election %d elected %d, the wrapper %d", it, el.Leader, st.Leader)
			}
		}
	}

	// Layers core.Run does not time, replayed on a fresh copy of the world.
	wB, err := pw.tracedSetup(nil, sh, ws)
	if err != nil {
		return result{}, err
	}
	pw.replayLayers(tr, ls, wB, pr, reps)
	for _, name := range []string{"prefgen.plant", "world.build", "adversary.corrupt", "cluster.graph", "cluster.peel"} {
		s, _ := tr.total(name)
		ls.add(name+"_s", s)
	}
	fullS, fullMB := tr.total("smallradius.full")
	ls.add("smallradius.full_s", fullS)
	ls.add("smallradius.full_alloc_MB", fullMB)

	// Phase coverage: the share of the traced protocol's wall time that
	// the timed phases add up to — the per-guess phases core.Run times
	// itself, the easy-case SmallRadius and the elections (timed in the
	// replays), the adversarial complements and the final select. A phase
	// nobody times shows as a gap here.
	adv, _ := tr.total("core.adversarial")
	phases := adv
	for _, name := range []string{"core.sample_s", "smallradius.sample_s", "cluster.s", "core.workshare_s",
		"smallradius.full_s", "election.s", "selection.final_s"} {
		phases += ls.vals[name]
	}
	ls.add("trace.coverage", phases/wall)
	if !o.tiny && ls.vals["trace.coverage"] < minCoverage {
		ls.fail("timed phases cover %.3f of the traced protocol's wall time, below %.2f", ls.vals["trace.coverage"], minCoverage)
	}

	ls.add("world.probe_word_ns", probeWordNs(wA))
	tr.print(w)
	return ls.result(w, 2), nil
}

// tracedSweep makes two grid passes: a two-worker pass under the CPU
// profiler (the measured configuration) and a one-worker pass whose
// Progress callbacks time each point in turn. Both must produce the same
// records.
func tracedSweep(w io.Writer, o options) (result, error) {
	ls := newLayerSet()
	points, err := sweep.Expand(sweepSpec(o.seed, o.tiny))
	if err != nil {
		return result{}, err
	}
	var recs2 []sweep.Record
	wall, err := ls.profiled(func() {
		var bad []string
		recs2, bad = runGrid(points, sweepWorkers, nil)
		ls.failures = append(ls.failures, bad...)
	})
	if err != nil {
		return result{}, err
	}
	ls.add("trace.production_s", wall)
	runtime.GC()

	// Progress runs on the worker's goroutine right after each point, so
	// with one worker the gaps between calls are the points' run times.
	byProto := map[string][]float64{}
	last := time.Now()
	var covered float64
	a0 := heapAllocs()
	t := time.Now()
	recs1, bad := runGrid(points, 1, func(_, _ int, rec sweep.Record) {
		now := time.Now()
		d := now.Sub(last).Seconds()
		byProto[rec.Protocol] = append(byProto[rec.Protocol], d)
		covered += d
		last = now
	})
	wall1 := since(t)
	ls.failures = append(ls.failures, bad...)
	ls.add("sweep.alloc_MB_per_point", (heapAllocs()-a0)/mb/float64(len(points)))
	ls.add("trace.wall_s", wall1)
	ls.add("trace.coverage", covered/wall1)
	if recordsDigest(recs1) != recordsDigest(recs2) {
		ls.fail("one-worker records differ from the two-worker pass")
	}
	for proto, name := range map[string]string{"run": "core.point_s", "byzantine": "core.byz_point_s",
		"baseline": "baseline.point_s", "ratings": "multival.point_s", "budgets": "budgets.point_s"} {
		ls.add(name, median(byProto[proto]))
	}
	var probes float64
	for _, r := range recs1 {
		probes += float64(r.TotalProbes)
	}
	ls.add("world.probes", probes)
	return ls.result(w, 2*len(points)), nil
}
