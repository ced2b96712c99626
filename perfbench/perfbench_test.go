package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"collabscore/internal/bitvec"
	"collabscore/internal/sweep"
)

// validName is the name rule BENCHMARK.json imposes on workloads and
// metrics.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsTiny runs every workload at its smoke-test size, measured
// and traced, and checks that each passes its output checks and prints
// exactly the metrics BENCHMARK.json names for that pass.
func TestWorkloadsTiny(t *testing.T) {
	bench := readBenchmarkJSON(t)
	for _, wl := range workloads {
		if !validName.MatchString(wl.name) {
			t.Errorf("workload name %q is not a valid name", wl.name)
		}
		for _, trace := range []bool{false, true} {
			name := wl.name + "/measure"
			want := bench.EndToEnd
			if trace {
				name, want = wl.name+"/trace", bench.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var buf bytes.Buffer
				res, err := run(&buf, options{workload: wl.name, seed: 7, seconds: 0.01, trace: trace, tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, buf.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !trace {
					for _, e2e := range []string{"run_s", "points_per_s", "setup_s", "alloc_MB", "retained_MB", "max_error", "max_probes", "fail_frac"} {
						if wl.name != "sweep-grid" && e2e == "points_per_s" {
							continue
						}
						if !strings.Contains(buf.String(), "e2e "+e2e+" ") {
							t.Errorf("report does not print end-to-end metric %s", e2e)
						}
					}
				}
			})
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric lists the same.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i := range min(len(bj.EndToEnd), len(endToEnd)) {
		if bj.EndToEnd[i].Name != endToEnd[i].name || bj.EndToEnd[i].Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, program %v", i, bj.EndToEnd[i], endToEnd[i])
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program %d", len(bj.PerLayer), len(perLayer))
	}
	for i := range min(len(bj.PerLayer), len(perLayer)) {
		if bj.PerLayer[i].Name != perLayer[i].name || bj.PerLayer[i].Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, program %v", i, bj.PerLayer[i], perLayer[i])
		}
	}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		if !validName.MatchString(m.Name) {
			t.Errorf("metric name %q is not a valid name", m.Name)
		}
	}
}

// TestCheckRejectsMutatedOutput shows the protocol checks catch a wrong
// report: a mean probe count that disagrees with the world's counters, and
// a flipped honest prediction, which breaks the error bound, the report's
// own summary and the digest.
func TestCheckRejectsMutatedOutput(t *testing.T) {
	for _, pw := range []protoWorkload{byzDefault, lazyOneDiam} {
		sh := pw.tiny
		seeds, err := pw.worldSeeds(sh, 7)
		if err != nil {
			t.Fatal(err)
		}
		sim := pw.build(sh, seeds[0])
		rep := pw.execute(sim)
		if bad := pw.check(sh, sim, rep); len(bad) > 0 {
			t.Fatalf("%s: unmutated run fails its checks: %v", pw.name, bad)
		}
		before := reportDigest(rep)
		rep.MeanProbes++
		if bad := pw.check(sh, sim, rep); len(bad) == 0 {
			t.Errorf("%s: a wrong mean probe count passes the checks", pw.name)
		}
		if reportDigest(rep) == before {
			t.Errorf("%s: a wrong mean probe count keeps the digest", pw.name)
		}
		rep.MeanProbes--
		p := sim.World().HonestPlayers()[0]
		rep.Outputs[p] = rep.Outputs[p].Not()
		if bad := pw.check(sh, sim, rep); len(bad) == 0 {
			t.Errorf("%s: a flipped honest output passes the checks", pw.name)
		}
		if reportDigest(rep) == before {
			t.Errorf("%s: a flipped honest output keeps the digest", pw.name)
		}
	}
}

// TestCheckRecordsRejectsMutation shows the sweep checks catch a record
// over its error bound, a record over m probes and a missing record.
func TestCheckRecordsRejectsMutation(t *testing.T) {
	points, err := sweep.Expand(sweepSpec(7, true))
	if err != nil {
		t.Fatal(err)
	}
	recs, bad := runGrid(points, 1, nil)
	if len(bad) > 0 {
		t.Fatalf("unmutated grid fails its checks: %v", bad)
	}
	before := recordsDigest(recs)
	for _, mutate := range []func([]sweep.Record) []sweep.Record{
		func(rs []sweep.Record) []sweep.Record { rs[0].MaxError = pointErrBound(rs[0].Point) + 1; return rs },
		func(rs []sweep.Record) []sweep.Record { rs[1].MaxProbes = int64(rs[1].Objects) + 1; return rs },
		func(rs []sweep.Record) []sweep.Record { return rs[1:] },
	} {
		m := mutate(append([]sweep.Record(nil), recs...))
		if len(checkRecords(points, m)) == 0 {
			t.Error("a mutated record set passes the checks")
		}
		if recordsDigest(m) == before {
			t.Error("a mutated record set keeps the digest")
		}
	}
}

// TestSameOutputsDetectsOneBit shows the traced pass's identity check
// tells outputs apart that differ in a single bit.
func TestSameOutputsDetectsOneBit(t *testing.T) {
	a := []bitvec.Vector{bitvec.New(100), bitvec.New(100)}
	b := []bitvec.Vector{bitvec.New(100), bitvec.New(100)}
	if !sameOutputs(a, b) {
		t.Fatal("equal outputs reported different")
	}
	b[1].Set(99, true)
	if sameOutputs(a, b) {
		t.Fatal("outputs differing in one bit reported equal")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestSharesFromTop pins the parsing of `go tool pprof -top -unit=ns`.
func TestSharesFromTop(t *testing.T) {
	top := `Showing nodes accounting for 400000000ns, 100% of 400000000ns total
      flat  flat%   sum%        cum   cum%
200000000ns 50.00% 50.00% 300000000ns 75.00%  collabscore/internal/zeroradius.eliminate.func1
100000000ns 25.00% 75.00% 100000000ns 25.00%  internal/runtime/maps.ctrlGroup.matchH2 (inline)
100000000ns 25.00%   100% 100000000ns 25.00%  runtime.mapaccess1_fast64
         0     0%   100% 400000000ns   100%  runtime.main
`
	got := sharesFromTop(top)
	if got["zeroradius"] != 0.5 || got["map"] != 0.5 || got["runtime"] != 0 {
		t.Errorf("shares %v, want zeroradius 0.5, map 0.5, runtime 0", got)
	}
}

// TestCPUProfileShares profiles a busy loop and checks the shares find the
// loop's package.
func TestCPUProfileShares(t *testing.T) {
	ls := newLayerSet()
	var sink uint64
	if _, err := ls.profiled(func() {
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			v := bitvec.New(1 << 12)
			for i := 0; i < 1<<12; i += 3 {
				v.Set(i, true)
			}
			sink += uint64(v.Count())
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = sink
	if ls.vals["par.cpu_util"] <= 0 {
		t.Errorf("cpu_util %v, want > 0", ls.vals["par.cpu_util"])
	}
	if ls.vals["bitvec.cpu_share"] <= 0 {
		t.Errorf("bitvec share %v, want > 0 for a loop in bitvec", ls.vals["bitvec.cpu_share"])
	}
}
