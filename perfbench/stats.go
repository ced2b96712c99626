package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"collabscore/internal/bitvec"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match the ones Python computes from the same figures.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		ld, m := len(d), len(d)+1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// mean returns the mean of xs (0 for none). Allocation and probe counts
// repeat almost exactly for one world, so over several worlds the mean is
// the steadier summary.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// Runtime counters read through runtime/metrics.
const (
	mHeapAllocs = "/gc/heap/allocs:bytes"
	mHeapLive   = "/gc/heap/live:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
)

// readRuntime returns the current value of each named runtime metric as a
// float64.
func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// heapAllocs returns the bytes allocated on the heap since the process
// started.
func heapAllocs() float64 { return readRuntime(mHeapAllocs)[0] }

// retainedAfterGC forces a collection and returns the live heap it found.
func retainedAfterGC() float64 {
	runtime.GC()
	return readRuntime(mHeapLive)[0]
}

// procCPU returns the process's user plus system CPU time in seconds.
func procCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const mb = 1 << 20

// digest accumulates a SHA-256 over a run's outputs and counters.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d *digest) vectors(vs []bitvec.Vector) {
	var b [8]byte
	for _, v := range vs {
		d.ints(int64(v.Len()))
		for wi := 0; wi < v.Words(); wi++ {
			binary.LittleEndian.PutUint64(b[:], v.Word(wi))
			d.h.Write(b[:])
		}
	}
}

func (d *digest) sum() string { return string(d.h.Sum(nil)) }
