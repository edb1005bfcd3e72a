package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary %+v", s)
	}
	if !approx(s.Mean, 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if !approx(s.Stddev, 2, 1e-12) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if !approx(s.Median, 4.5, 1e-12) {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.VarPct() != 0 || s.CV() != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestVarPctMatchesPaperDefinition(t *testing.T) {
	// ep.A.8 standard Linux: min 8.54, max 14.59 => 70.84%.
	s := Summary{Min: 8.54, Max: 14.59}
	if !approx(s.VarPct(), 70.84, 0.01) {
		t.Fatalf("VarPct = %v, want 70.84", s.VarPct())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if !approx(Quantile(xs, 0.5), 3, 1e-12) {
		t.Fatal("median quantile wrong")
	}
	if !approx(Quantile(xs, 0.25), 2, 1e-12) {
		t.Fatal("interpolated quantile wrong")
	}
}

func TestSummaryInvariants(t *testing.T) {
	check := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.P95 <= s.P99 && s.Stddev >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(11)
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bin %d count %d", i, c)
		}
	}
	if h.Under != 1 || h.Over != 1 || h.Total() != 12 {
		t.Fatalf("under/over/total = %d/%d/%d", h.Under, h.Over, h.Total())
	}
	if !approx(h.BinCenter(0), 0.5, 1e-12) {
		t.Fatalf("BinCenter(0) = %v", h.BinCenter(0))
	}
	out := h.Render(20, "test")
	if !strings.Contains(out, "test (n=12") {
		t.Fatalf("render header missing: %q", out)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(0)    // lowest bin
	h.Add(0.99) // highest bin
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("edge binning wrong: %v", h.Counts)
	}
	h.Add(1) // boundary goes to Over
	if h.Over != 1 {
		t.Fatal("hi boundary not counted as over")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if !approx(Pearson(xs, ys), 1, 1e-12) {
		t.Fatalf("r = %v, want 1", Pearson(xs, ys))
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !approx(Pearson(xs, neg), -1, 1e-12) {
		t.Fatalf("r = %v, want -1", Pearson(xs, neg))
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant x should give r=0")
	}
	if Pearson([]float64{1}, []float64{1}) != 0 {
		t.Fatal("n<2 should give r=0")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, icpt := LinearFit(xs, ys)
	if !approx(slope, 2, 1e-9) || !approx(icpt, 1, 1e-9) {
		t.Fatalf("fit = %v x + %v, want 2x+1", slope, icpt)
	}
}

func TestBin2D(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 2}
	ys := []float64{10, 20, 30, 30, 60}
	bx, by := Bin2D(xs, ys)
	if len(bx) != 2 || bx[0] != 1 || bx[1] != 2 {
		t.Fatalf("bx = %v", bx)
	}
	if !approx(by[0], 15, 1e-12) || !approx(by[1], 40, 1e-12) {
		t.Fatalf("by = %v", by)
	}
}

func TestMaxOfN(t *testing.T) {
	check := func(u16 uint16, n8 uint8) bool {
		u := float64(u16) / 65536
		n := int(n8%64) + 1
		r := MaxOfN(u, n)
		return r >= 0 && r < 1 && r >= u && approx(math.Pow(r, float64(n)), u, 1e-12)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if MaxOfN(0.25, 2) != 0.5 || MaxOfN(0.3, 1) != 0.3 || MaxOfN(0.3, 0) != 0.3 {
		t.Fatal("MaxOfN: wrong exact values")
	}
	// The draw samples the maximum of n uniforms, whose mean is n/(n+1).
	const draws, n = 100000, 7
	var sum float64
	for i := 0; i < draws; i++ {
		sum += MaxOfN((float64(i)+0.5)/draws, n)
	}
	if mean := sum / draws; !approx(mean, float64(n)/(n+1), 1e-4) {
		t.Fatalf("mean of MaxOfN(u, %d) = %v, want %v", n, mean, float64(n)/(n+1))
	}
}
