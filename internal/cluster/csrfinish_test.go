package cluster

import (
	"reflect"
	"slices"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

// schedules is the executor matrix for the parallel builders: the serial
// reference, a fixed width forcing real goroutine interleavings, and the
// parallel default.
func schedules() map[string]*par.Runner {
	return map[string]*par.Runner{
		"serial":   par.Serial(),
		"fixed3":   par.Fixed(3),
		"parallel": par.Parallel(),
	}
}

// TestCSRFinishMatchesSerial: the parallel CSR row compaction yields the
// exact graph of the serial in-place finish for the same edge stream —
// duplicate edges included — under every schedule.
func TestCSRFinishMatchesSerial(t *testing.T) {
	rng := xrand.New(97)
	for _, n := range []int{1, 5, 63, 200} {
		// A messy stream: random edges, many duplicates, both orientations.
		var edges [][2]int32
		for i := 0; i < 6*n; i++ {
			p := int32(rng.Intn(n))
			q := int32(rng.Intn(n))
			if p == q {
				continue
			}
			edges = append(edges, [2]int32{p, q})
			if i%3 == 0 {
				edges = append(edges, [2]int32{q, p}) // duplicate, flipped
			}
		}
		serial := newCSRBuilder(n)
		serial.flush(edges)
		want := serial.build()
		for ename, exec := range schedules() {
			b := newCSRBuilder(n)
			b.flush(edges)
			got := b.buildOn(exec)
			if !reflect.DeepEqual(got.off, want.off) || !reflect.DeepEqual(got.tgt, want.tgt) {
				t.Fatalf("n=%d %s: parallel CSR finish differs from serial build", n, ename)
			}
		}
	}
}

// TestBuildGraphL1Matches: the shared L1 block sweep discovers exactly the
// brute-force edge set, across representations and schedules.
func TestBuildGraphL1Matches(t *testing.T) {
	rng := xrand.New(131)
	for _, n := range []int{0, 1, 9, 70, 130} {
		const m, scale = 40, 7
		rows := make([]bitvec.Planes, n)
		for p := range rows {
			rows[p] = bitvec.PlanesForScale(m, scale)
			for o := 0; o < m; o++ {
				rows[p].Set(o, rng.Intn(scale+1))
			}
		}
		threshold := m * scale / 8
		for gname, rep := range map[string]GraphRep{"dense": RepDense, "sparse": RepSparse} {
			for ename, exec := range schedules() {
				g := BuildGraphL1On(exec, rows, threshold, rep)
				if g.N() != n {
					t.Fatalf("n=%d: got N=%d", n, g.N())
				}
				for p := 0; p < n; p++ {
					for q := 0; q < n; q++ {
						want := p != q && rows[p].L1(rows[q]) <= threshold
						if got := g.Adjacent(p, q); got != want {
							t.Fatalf("n=%d %s/%s: edge (%d,%d) = %v, want %v",
								n, gname, ename, p, q, got, want)
						}
					}
				}
			}
		}
	}
}

// build is the serial reference finish the parallel buildOn is pinned
// against (TestCSRFinishMatchesSerial, BenchmarkCSRFinish): one pass
// sorts, dedups, and compacts rows left in place.
func (b *csrBuilder) build() *CSRGraph {
	n := b.n
	off := make([]int64, n+1)
	for _, e := range b.edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	tgt := make([]int32, off[n])
	cur := make([]int64, n)
	copy(cur, off[:n])
	for _, e := range b.edges {
		tgt[cur[e[0]]] = e[1]
		cur[e[0]]++
		tgt[cur[e[1]]] = e[0]
		cur[e[1]]++
	}
	b.edges = nil // release the raw stream before the graph outlives us

	// Sort and deduplicate each row in place. The write cursor w never
	// passes the read position (compaction only shrinks rows), so the
	// compacted prefix of tgt can be rebuilt while the tail is still being
	// read.
	var w int64
	lo := int64(0)
	for p := 0; p < n; p++ {
		hi := off[p+1]
		row := tgt[lo:hi]
		slices.Sort(row)
		off[p] = w
		prev := int32(-1)
		for _, q := range row {
			if q != prev {
				tgt[w] = q
				w++
				prev = q
			}
		}
		lo = hi
	}
	off[n] = w
	if w <= int64(len(tgt))-int64(len(tgt))/8 {
		// Heavy duplication: reallocate to the compact size rather than
		// retaining the oversized backing array for the graph's lifetime.
		tgt = append(make([]int32, 0, w), tgt[:w]...)
	} else {
		tgt = tgt[:w]
	}
	return &CSRGraph{n: n, off: off, tgt: tgt}
}
