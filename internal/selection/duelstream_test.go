package selection

import (
	"math/bits"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/xrand"
)

// stridedObjs returns m positions spread over a larger object space with
// the given stride — the shape of SmallRadius's per-group object lists,
// where consecutive candidate positions map to scattered world words.
func stridedObjs(m, stride int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i * stride
	}
	return out
}

// TestDuelStreamMatchesSerial: the word-block streaming duel is
// byte-identical to the bit-at-a-time reference — same verdict, same
// probe charges, and the same coins consumed — across object mappings
// (identity and strided), distances (equal, below budget, above budget,
// and past maxRankBitmap, where the sorted rank list replaces the
// bitmap), and budgets (the small protocol budgets below 24, which the
// rank bitmap now serves on every mapping, and the heap-spill regime past
// maxPairBudget).
func TestDuelStreamMatchesSerial(t *testing.T) {
	const n = 4
	cases := []struct {
		name   string
		objs   []int
		worldM int
	}{
		{"identity", identityObjs(512), 512},
		{"identity-odd", identityObjs(413), 413},
		{"strided", stridedObjs(96, 7), 96 * 7},
		{"tiny", identityObjs(40), 40},
		{"wide", identityObjs(3 * maxRankBitmap), 3 * maxRankBitmap},
	}
	for _, tc := range cases {
		mc := len(tc.objs)
		base := buildWorld(21, n, tc.worldM)
		truth := base.TruthVector(0).Gather(tc.objs)
		pairs := []struct {
			name  string
			flips int
		}{
			{"equal", 0},
			{"near", 5},
			{"mid", mc / 8},
			{"far", mc / 2},
			{"farthest", mc * 3 / 4},
		}
		for _, pb := range pairs {
			for _, budget := range []int{4, 8, 13, 23, 200} {
				a := truth.Clone()
				b := flipped(truth, xrand.New(uint64(pb.flips)*3+1), pb.flips)
				// Fresh, identical worlds per path so probe counters and
				// memo state compare exactly.
				ws := buildWorld(21, n, tc.worldM)
				wb := buildWorld(21, n, tc.worldM)
				rs := xrand.New(77)
				rb := xrand.New(77)
				ctxS := duelCtx{w: ws, p: 0, objs: tc.objs, ident: identObjs(tc.objs), serial: true}
				ctxB := duelCtx{w: wb, p: 0, objs: tc.objs, ident: identObjs(tc.objs)}
				agreeS, totalS := duelProbes(&ctxS, a, b, rs, budget)
				agreeB, totalB := duelProbes(&ctxB, a, b, rb, budget)
				if agreeS != agreeB || totalS != totalB {
					t.Fatalf("%s/%s budget=%d: stream (%d,%d) != serial (%d,%d)",
						tc.name, pb.name, budget, agreeB, totalB, agreeS, totalS)
				}
				if ws.Probes(0) != wb.Probes(0) {
					t.Fatalf("%s/%s budget=%d: stream charged %d probes, serial %d",
						tc.name, pb.name, budget, wb.Probes(0), ws.Probes(0))
				}
				// Identical coin consumption: the streams must be in the
				// same state afterwards.
				for i := 0; i < 8; i++ {
					if x, y := rs.Intn(1<<20), rb.Intn(1<<20); x != y {
						t.Fatalf("%s/%s budget=%d: coin streams diverged after duel",
							tc.name, pb.name, budget)
					}
				}
			}
		}
	}
}

// TestRSelectStreamMatchesSerial: whole tournaments agree — winner index
// and per-player probe totals — between the streaming and serial duel
// paths, over identity and strided object mappings.
func TestRSelectStreamMatchesSerial(t *testing.T) {
	for _, objs := range [][]int{identityObjs(700), stridedObjs(100, 5)} {
		worldM := objs[len(objs)-1] + 1
		ws := buildWorld(33, 6, worldM)
		wb := buildWorld(33, 6, worldM)
		truth := ws.TruthVector(2).Gather(objs)
		rng := xrand.New(9)
		var cands []bitvec.Vector
		for i := 0; i < 7; i++ {
			cands = append(cands, flipped(truth, rng.Split(uint64(i)), 11*i*i))
		}
		serialPr := Scaled()
		serialPr.DuelSerial = true
		gotS := RSelect(ws, 2, objs, cands, xrand.New(55), serialPr)
		gotB := RSelect(wb, 2, objs, cands, xrand.New(55), Scaled())
		if gotS != gotB {
			t.Fatalf("RSelect winner: stream %d != serial %d", gotB, gotS)
		}
		if ws.Probes(2) != wb.Probes(2) {
			t.Fatalf("RSelect probes: stream %d != serial %d", wb.Probes(2), ws.Probes(2))
		}
		// Select (the champion tournament) over the same candidates.
		ws2 := buildWorld(33, 6, worldM)
		wb2 := buildWorld(33, 6, worldM)
		gotS = Select(ws2, 2, objs, cands, 9, xrand.New(56), serialPr)
		gotB = Select(wb2, 2, objs, cands, 9, xrand.New(56), Scaled())
		if gotS != gotB {
			t.Fatalf("Select champion: stream %d != serial %d", gotB, gotS)
		}
		if ws2.Probes(2) != wb2.Probes(2) {
			t.Fatalf("Select probes: stream %d != serial %d", wb2.Probes(2), ws2.Probes(2))
		}
	}
}

// TestDuelStreamAllocFree: the word-block duel allocates nothing, on both
// the identity and the batching (strided) paths, at every budget the
// protocol uses — the small Select budgets below 24 included, which draw
// their ranks into the stack bitmap like every other budget — and on the
// sorted-rank fallback for distances past maxRankBitmap.
func TestDuelStreamAllocFree(t *testing.T) {
	objs := stridedObjs(128, 5)
	w := buildWorld(41, 2, 3*maxRankBitmap)
	truth := w.TruthVector(0).Gather(objs)
	far := flipped(truth, xrand.New(3), 60)
	wide := identityObjs(3 * maxRankBitmap)
	rng := xrand.New(4)
	for name, ctx := range map[string]*duelCtx{
		"strided":  {w: w, p: 0, objs: objs},
		"identity": {w: w, p: 0, objs: identityObjs(128*5 - 1), ident: true},
		"wide":     {w: w, p: 0, objs: wide, ident: true},
	} {
		a, b := truth, far
		switch name {
		case "identity":
			a = w.TruthVector(0).Gather(ctx.objs)
			b = flipped(a, xrand.New(5), 60)
		case "wide":
			a = w.TruthVector(0)
			b = flipped(a, xrand.New(6), 2*maxRankBitmap)
		}
		for _, budget := range []int{4, 8, 13, 40} {
			if avg := testing.AllocsPerRun(50, func() {
				duelProbesStream(ctx, a, b, rng, budget)
			}); avg != 0 {
				t.Fatalf("%s duel at budget %d allocates %.1f times per run, want 0", name, budget, avg)
			}
		}
	}
}

// TestSelectBitsMatchesStepping: selectBits picks exactly the set bits of
// x whose ordinals are marked in r — the ones a walk over x's set bits in
// ascending order would pick — for sparse, dense, and boundary words.
func TestSelectBitsMatchesStepping(t *testing.T) {
	rng := xrand.New(31)
	words := []uint64{0, 1, 1 << 63, ^uint64(0), 0x8000000100000001, 0xff00ff00ff00ff00}
	for i := 0; i < 2000; i++ {
		words = append(words, rng.Uint64()&rng.Uint64()|rng.Uint64()&rng.Uint64())
	}
	for _, x := range words {
		c := bits.OnesCount64(x)
		for trial := 0; trial < 4; trial++ {
			r := rng.Uint64()
			if trial == 0 {
				r = ^uint64(0)
			}
			if c < 64 {
				r &= 1<<uint(c) - 1
			}
			var want uint64
			k := 0
			for y := x; y != 0; y &= y - 1 {
				if r>>uint(k)&1 != 0 {
					want |= y & -y
				}
				k++
			}
			if got := selectBits(x, r); got != want {
				t.Fatalf("selectBits(%#x, %#x) = %#x, want %#x", x, r, got, want)
			}
		}
	}
}
