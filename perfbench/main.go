// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload as a closed loop with one client (the next protocol run
// starts when the previous one ends) for a fixed number of seconds, checks
// every run's outputs, and prints the end-to-end metrics. With --trace 1 it
// instead makes one traced pass and prints the per-layer metrics.
//
// Usage (from the module root's parent, i.e. the repository root):
//
//	bash perfbench/run.sh --workload byz-default --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a human
// report (environment, every metric with its unit, and the checks). See
// README.md in this directory for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 40, "measuring time of the closed loop, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 makes one traced pass and prints the per-layer metrics")
	flag.BoolVar(&o.tiny, "tiny", false, "run the workload at its smoke-test size")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation and writes the human report to w.
func run(w io.Writer, o options) (result, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	printEnv(w, o)
	var (
		res result
		err error
	)
	if o.trace {
		res, err = wl.traced(w, o)
	} else {
		res, err = wl.measure(w, o)
	}
	if err != nil {
		return result{}, err
	}
	printMetrics(w, res)
	return res, nil
}

// printEnv records the environment every result depends on.
func printEnv(w io.Writer, o options) {
	model, cache := cpuInfo()
	fmt.Fprintf(w, "env workload=%s seed=%d seconds=%g trace=%v tiny=%v\n", o.workload, o.seed, o.seconds, o.trace, o.tiny)
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d go=%s goos=%s goarch=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "env cpu=%q cache=%q\n", model, cache)
}

// cpuInfo returns the CPU model name and cache size the kernel reports, or
// "unknown" where /proc/cpuinfo is not available.
func cpuInfo() (model, cache string) {
	model, cache = "unknown", "unknown"
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return model, cache
	}
	for _, ln := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(v)
			}
		case "cache size":
			if cache == "unknown" {
				cache = strings.TrimSpace(v)
			}
		}
	}
	return model, cache
}

// printMetrics writes every metric of res, one per line, sorted by name.
func printMetrics(w io.Writer, res result) {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "result correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
