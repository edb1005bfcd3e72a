// Package stats provides the statistics the paper reports: min/avg/max
// summaries, the paper's variation metric (max-min)/min, fixed-bin
// histograms for the execution-time distribution figures, and Pearson
// correlation with a least-squares fit for the time-vs-events figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary are the aggregate statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64
	Median float64
	P95    float64
	P99    float64
}

// VarPct is the paper's variation metric: (max-min)/min * 100
// ("variation is computed as the difference between maximum and minimum
// performance values divided by the minimum value", Section V).
func (s Summary) VarPct() float64 {
	if s.Min == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Min * 100
}

// CV is the coefficient of variation (stddev/mean), a secondary stability
// metric.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / s.Mean
}

// Summarize computes the Summary of xs. An empty sample yields zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumsq float64
	for _, x := range sorted {
		sum += x
		sumsq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		Median: Quantile(sorted, 0.5),
		P95:    Quantile(sorted, 0.95),
		P99:    Quantile(sorted, 0.99),
	}
}

// Quantile returns the q-quantile (0..1) of an ascending-sorted sample,
// with linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// MaxOfN maps one uniform draw u in [0,1) to a draw of the maximum of n
// iid U(0,1) variables: P(max <= x) = x^n, so inverting the CDF gives
// u^(1/n). One draw per job or barrier instead of one per node keeps the
// cluster and batch models O(1) in RNG traffic regardless of node count.
// For n <= 1 it returns u.
func MaxOfN(u float64, n int) float64 {
	if n <= 1 {
		return u
	}
	return math.Pow(u, 1/float64(n))
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Under and Over count samples outside [Lo, Hi).
	Under, Over int
}

// NewHistogram builds a histogram with nbins bins spanning [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if hi <= lo || nbins <= 0 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // float edge
			i--
		}
		h.Counts[i]++
	}
}

// Total reports the number of samples recorded, including out-of-range.
func (h *Histogram) Total() int {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// BinCenter reports the centre of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Render draws the histogram as ASCII art, one row per bin, the way the
// experiment binaries print the paper's Figures 2 and 4.
func (h *Histogram) Render(width int, label string) string {
	max := 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d, under=%d, over=%d)\n", label, h.Total(), h.Under, h.Over)
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/max)
		fmt.Fprintf(&b, "%10.3f | %-*s %d\n", h.BinCenter(i), width, bar, c)
	}
	return b.String()
}

// Pearson computes the Pearson correlation coefficient of (x, y) pairs.
// It returns 0 for degenerate inputs.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// LinearFit returns the least-squares slope and intercept of y over x.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	vx := sxx/n - sx/n*sx/n
	if vx == 0 {
		return 0, sy / n
	}
	slope = (sxy/n - sx/n*sy/n) / vx
	intercept = sy/n - slope*sx/n
	return slope, intercept
}

// Bin2D groups ys by integer-rounded xs and returns the sorted unique xs
// with the mean y per group — the format of the paper's Figures 3a/3b
// (execution time as a function of event count).
func Bin2D(xs, ys []float64) (bx, by []float64) {
	groups := make(map[int][]float64)
	for i := range xs {
		k := int(math.Round(xs[i]))
		groups[k] = append(groups[k], ys[i])
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		var sum float64
		for _, y := range groups[k] {
			sum += y
		}
		bx = append(bx, float64(k))
		by = append(by, sum/float64(len(groups[k])))
	}
	return bx, by
}
