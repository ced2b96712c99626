package collabscore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"strconv"
	"testing"

	"collabscore/internal/adversary"
	"collabscore/internal/bitvec"
	"collabscore/internal/core"
	"collabscore/internal/prefgen"
	"collabscore/internal/smallradius"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
	"collabscore/internal/zeroradius"
)

// The digests below pin the exact fixed-seed behavior of the protocol
// stack: every output bit, every per-player probe count, every count field
// of IterationStats and all board traffic. The determinism ladder
// (TestScheduleMatrixMatches, TestPhaseParallelMatchesSerial, …) compares
// schedules of the same code against each other; these constants compare
// the code against its own past, so a rewrite of a hot path that changed a
// tie-break, a coin draw or a probe charge fails here even when every
// schedule still agrees. The constants must never be re-pinned to admit a
// change of behavior.

// digestWriter feeds fixed-width little-endian fields into a SHA-256.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) int(x int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(x))
	d.h.Write(d.buf[:])
}

func (d *digestWriter) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digestWriter) vec(v bitvec.Vector) {
	d.int(int64(v.Len()))
	for wi := 0; wi < v.Words(); wi++ {
		d.int(int64(v.Word(wi)))
	}
}

// probes hashes every player's probe charge.
func (d *digestWriter) probes(w *world.World) {
	for p := 0; p < w.N(); p++ {
		d.int(w.Probes(p))
	}
}

func (d *digestWriter) iterations(its []core.IterationStats) {
	d.int(int64(len(its)))
	for _, it := range its {
		d.int(int64(it.D))
		d.int(int64(it.SampleSize))
		d.int(int64(it.NumClusters))
		d.int(int64(it.MinCluster))
		d.int(int64(it.Unassigned))
		d.bool(it.UsedFullSR)
		d.int(it.BoardWrites)
		d.int(it.BoardReads)
	}
}

// result hashes a whole protocol result and the world's probe charges.
func (d *digestWriter) result(w *world.World, res *core.Result) {
	d.int(int64(len(res.Output)))
	for _, v := range res.Output {
		d.vec(v)
	}
	d.probes(w)
	d.iterations(res.Iterations)
	d.int(int64(len(res.Reps)))
	for _, rp := range res.Reps {
		d.int(int64(rp.Leader))
		d.bool(rp.HonestLeader)
		d.iterations(rp.Iterations)
		d.int(rp.BoardWrites)
		d.int(rp.BoardReads)
	}
	d.int(int64(res.HonestLeaders))
	d.int(int64(res.Repetitions))
	d.int(res.BoardWrites)
	d.int(res.BoardReads)
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// outputs hashes a player-indexed protocol output in player order; get
// returns player p's vector (the zero Vector when p has none), so the
// helper serves map- and slice-shaped results alike.
func (d *digestWriter) outputs(n int, get func(p int) bitvec.Vector) {
	for p := 0; p < n; p++ {
		d.vec(get(p))
	}
}

// TestProtocolDigestsPinned: seeded default-config Run and RunByzantine —
// every diameter guess, the §6.1 easy case included — on dense and lazy
// truth, against colluders and cluster hijackers.
func TestProtocolDigestsPinned(t *testing.T) {
	// Dense and lazy truth are bit-identical sources, so both must produce
	// the same digest.
	want := map[string]string{
		"colluders/run": "bde55ab722d11f379eb9be851bf96cbdc90f28fef7f09e24b3a81b4950f6ed0b",
		"colluders/byz": "12863710e7318bfe6e8b8fcc1b829ac4d22a10c45616981541556d8fa760d141",
		"hijackers/run": "84e1e1b60dbcf7365929df3a50283777c75955df0999c5170d157eb1a3c67019",
		"hijackers/byz": "e654895cb2ebfa090100268feb56e7a2eed55e9784e27b62474d4eb9a84c626c",
	}
	const n, clusterSize, diameter = 160, 40, 4
	easy, sampled := false, false
	for _, truth := range []string{"dense", "lazy"} {
		for _, strat := range []Strategy{Colluders, ClusterHijackers} {
			for _, mode := range []string{"run", "byz"} {
				name := map[Strategy]string{Colluders: "colluders", ClusterHijackers: "hijackers"}[strat] + "/" + mode
				sim := NewSimulation(Config{Players: n, Seed: 5, TruthSource: truth}).
					PlantClusters(clusterSize, diameter)
				sim.Corrupt(sim.Tolerance(), strat)
				var res *core.Result
				if mode == "run" {
					res = core.Run(sim.w, sim.rng.Split(10), sim.params)
				} else {
					res = core.RunByzantine(sim.w, sim.rng.Split(11), nil, sim.params)
				}
				for _, it := range res.Iterations {
					easy = easy || it.UsedFullSR
					sampled = sampled || !it.UsedFullSR
				}
				d := newDigest()
				d.result(sim.w, res)
				if got := d.sum(); got != want[name] {
					t.Errorf("%s/%s: digest %s, want %s", truth, name, got, want[name])
				}
			}
		}
	}
	if !easy || !sampled {
		t.Fatalf("scenarios must cover both the easy case (%v) and a sampled guess (%v)", easy, sampled)
	}
}

// TestBuildingBlockDigestsPinned: SmallRadius and ZeroRadius on their own,
// at n = 130 and 256, with colluding dishonest players publishing claims.
func TestBuildingBlockDigestsPinned(t *testing.T) {
	want := map[string]string{
		"smallradius/130": "359ecf0072f3781cec3cb51696002a889df3c46ab7b15a14404935a30038b9cf",
		"smallradius/256": "168b92e8c51cba98ff7ef9cf7ac306538ae2bb51cb0b7161d0b9b42861c41cf0",
		"zeroradius/130":  "2125e0e1acd5fb7d0cd2feb72cf7842295c9049504826b900e96107b3ac431fc",
		"zeroradius/256":  "b302616f3117698e8953125239ebc0643ff597ace9ad7b63c72c0b1f0d78f995",
	}
	for _, n := range []int{130, 256} {
		const b = 8
		rng := xrand.New(uint64(n) + 3)
		objs := make([]int, n)
		for i := range objs {
			objs[i] = i
		}
		corrupt := func(w *world.World) {
			c := adversary.NewColluder(uint64(n), n)
			adversary.Corrupt(w, n/(3*b), rng.Split(9).Perm(n), func(int) world.Behavior { return c })
		}

		in := prefgen.DiameterClusters(rng.Split(1), n, n, n/b, 6)
		w := world.New(in.Truth)
		corrupt(w)
		sr := smallradius.Run(world.NewRun(w), objs, 6, b, rng.Split(2), smallradius.Scaled(n))
		d := newDigest()
		d.outputs(n, func(p int) bitvec.Vector { return sr[p] })
		d.probes(w)
		if name, got := "smallradius/"+strconv.Itoa(n), d.sum(); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}

		in = prefgen.IdenticalClusters(rng.Split(3), n, n, n/b)
		w = world.New(in.Truth)
		corrupt(w)
		zr := zeroradius.Run(world.NewRun(w), objs, objs, b, rng.Split(4), zeroradius.Scaled())
		d = newDigest()
		d.outputs(n, func(p int) bitvec.Vector { return zr[p] })
		d.probes(w)
		if name, got := "zeroradius/"+strconv.Itoa(n), d.sum(); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}
