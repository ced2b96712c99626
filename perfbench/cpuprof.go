package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// profiledPackages are the repository packages whose flat CPU share the
// traced pass reports, under the metric name <pkg>.cpu_share.
var profiledPackages = []string{"zeroradius", "selection", "smallradius", "bitvec", "world", "prefgen", "cluster", "board"}

// flatShares writes a CPU profile next to the running binary (under
// .bench_build/ when started by run.sh), reads its flat per-function
// table with `go tool pprof -top`, and returns each class's share of the
// profile's CPU time: the package of the function ("map" for the runtime's
// map implementation).
func flatShares(profile []byte) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	path := filepath.Join(filepath.Dir(exe), "cpu.pprof")
	if err := os.WriteFile(path, profile, 0o644); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	defer os.Remove(path)
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-symbolize=none", "-unit=ns", path)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, errOut.String())
	}
	return sharesFromTop(out.String()), nil
}

// sharesFromTop sums the flat column of `go tool pprof -top -unit=ns`
// output by class. Its rows read "flat flat% sum% cum cum% function".
func sharesFromTop(top string) map[string]float64 {
	by := map[string]float64{}
	total := 0.0
	for _, ln := range strings.Split(top, "\n") {
		f := strings.Fields(ln)
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil || !strings.HasSuffix(f[1], "%") {
			continue
		}
		total += ns
		by[classify(f[5])] += ns
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for k, v := range by {
		out[k] = v / total
	}
	return out
}

// classify names the class of one function: "map" for the runtime's map
// implementation, otherwise the last element of its package path
// ("collabscore/internal/zeroradius.eliminate.func1" → "zeroradius").
func classify(fn string) string {
	if strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "internal/runtime/maps.") {
		return "map"
	}
	rest := fn[strings.LastIndexByte(fn, '/')+1:]
	if j := strings.IndexByte(rest, '.'); j >= 0 {
		rest = rest[:j]
	}
	return rest
}
