package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hplsim/internal/sim"
	"hplsim/internal/stats"
)

// noisySample builds a node distribution: mostly ideal iterations with a
// fraction `p` delayed by `factor`x.
func noisySample(ideal float64, p, factor float64, n int, seed uint64) NodeSample {
	rng := sim.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		if rng.Float64() < p {
			xs[i] = ideal * factor
		} else {
			xs[i] = ideal
		}
	}
	return NodeSample{IterationSec: xs, Ideal: ideal}
}

func TestResonanceAmplifiesWithScale(t *testing.T) {
	// 2% of iterations delayed 2x on one node: on one node the expected
	// slowdown is ~2%; at 1024 nodes nearly every global iteration hits
	// a delayed node, approaching the full 2x.
	ns := noisySample(0.1, 0.02, 2.0, 20000, 1)
	pts := Resonance(ns, []int{1, 16, 256, 4096}, 100, 300, sim.NewRNG(2))
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MeanSlowdown < pts[i-1].MeanSlowdown-0.01 {
			t.Fatalf("slowdown not monotone: %+v", pts)
		}
	}
	if pts[0].MeanSlowdown > 1.05 {
		t.Fatalf("single node slowdown = %.3f, want ~1.02", pts[0].MeanSlowdown)
	}
	if pts[3].MeanSlowdown < 1.8 {
		t.Fatalf("4096-node slowdown = %.3f, want ~2 (noise resonance)", pts[3].MeanSlowdown)
	}
	if pts[3].ProbIterDelayed < 0.99 {
		t.Fatalf("P(iter delayed) at scale = %.3f, want ~1 (Section II)", pts[3].ProbIterDelayed)
	}
}

func TestQuietNodeStaysFlat(t *testing.T) {
	ns := noisySample(0.1, 0, 1, 1000, 3)
	pts := Resonance(ns, []int{1, 1024}, 50, 100, sim.NewRNG(4))
	for _, p := range pts {
		if math.Abs(p.MeanSlowdown-1) > 0.01 {
			t.Fatalf("quiet node slowdown at %d nodes = %.4f", p.Nodes, p.MeanSlowdown)
		}
	}
}

func TestResonanceWorkerCountInvariance(t *testing.T) {
	// The Monte-Carlo composition must give identical points for every
	// worker count: each draw's stream derives from (seed, size, draw).
	ns := noisySample(0.1, 0.03, 2.5, 5000, 7)
	nodes := []int{1, 32, 512}
	seq := ResonanceOpt(ns, nodes, 40, 120, sim.NewRNG(8), 1)
	for _, workers := range []int{2, 8} {
		par := ResonanceOpt(ns, nodes, 40, 120, sim.NewRNG(8), workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: points differ from sequential:\nseq: %+v\npar: %+v",
				workers, seq, par)
		}
	}
	// And the legacy entry point is the workers=1 case.
	if !reflect.DeepEqual(seq, Resonance(ns, nodes, 40, 120, sim.NewRNG(8))) {
		t.Fatal("Resonance does not match ResonanceOpt(..., 1)")
	}
}

func TestValidation(t *testing.T) {
	if (NodeSample{}).Valid() {
		t.Fatal("empty sample valid")
	}
	ns := NodeSample{IterationSec: []float64{1}, Ideal: 1}
	if !ns.Valid() {
		t.Fatal("valid sample rejected")
	}
	assertPanics(t, func() { Resonance(NodeSample{}, []int{1}, 1, 1, sim.NewRNG(0)) })
	assertPanics(t, func() { Resonance(ns, []int{1}, 0, 1, sim.NewRNG(0)) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// TestRootN checks the max-order draw ResonanceOpt takes per iteration:
// the quantile it looks up is the n-th root of the uniform draw, in [0,1).
func TestRootN(t *testing.T) {
	check := func(u16 uint16, n8 uint8) bool {
		u := float64(u16) / 65536
		n := int(n8%64) + 1
		r := stats.MaxOfN(u, n)
		if r < 0 || r >= 1 {
			return false
		}
		return math.Abs(math.Pow(r, float64(n))-u) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPowInt checks the max-order draw on exact powers: u = x^n gives x,
// and a single node (or none) leaves the draw unchanged.
func TestPowInt(t *testing.T) {
	if r := stats.MaxOfN(1.0/1024, 10); math.Abs(r-0.5) > 1e-15 {
		t.Fatalf("MaxOfN(2^-10, 10) = %v, want 0.5", r)
	}
	if r := stats.MaxOfN(0.25, 2); r != 0.5 {
		t.Fatalf("MaxOfN(0.25, 2) = %v, want 0.5", r)
	}
	if stats.MaxOfN(0.3, 1) != 0.3 || stats.MaxOfN(0.3, 0) != 0.3 {
		t.Fatal("MaxOfN(u, n<=1) != u")
	}
}

func TestFormat(t *testing.T) {
	ns := noisySample(0.1, 0.05, 3, 5000, 5)
	pts := Resonance(ns, []int{1, 64}, 50, 100, sim.NewRNG(6))
	out := Format(pts)
	if !strings.Contains(out, "nodes") || !strings.Contains(out, "64") {
		t.Fatalf("format missing fields:\n%s", out)
	}
}
