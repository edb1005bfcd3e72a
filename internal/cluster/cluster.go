// Package cluster extends the single-node reproduction to the multi-node
// noise-resonance study of Section II: "when scaling to thousands of
// nodes, the probability that in each computing phase at least one node is
// slowed by some long kernel activity approaches 1.0".
//
// The study is a hybrid simulation, the standard technique of the noise
// literature (Tsafrir et al.; Ferreira et al.): the *node* behaviour is
// measured empirically by running the full single-node kernel simulation
// and recording per-iteration times at the barrier; the *cluster* is then
// composed by drawing each node's iteration time independently from that
// empirical distribution and taking the maximum per global iteration —
// which is exactly what a cluster-wide barrier computes. This preserves
// the single-node noise model bit-for-bit while scaling to thousands of
// nodes.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"hplsim/internal/pool"
	"hplsim/internal/sim"
	"hplsim/internal/stats"
)

// NodeSample is the empirical per-iteration time distribution of one node
// configuration, gathered from full single-node simulations.
type NodeSample struct {
	// IterationSec are observed per-iteration wall times (seconds).
	IterationSec []float64
	// Ideal is the noise-free iteration time (seconds), used to report
	// slowdown factors.
	Ideal float64
}

// Valid reports whether the sample can drive a resonance study.
func (ns NodeSample) Valid() bool {
	return len(ns.IterationSec) > 0 && ns.Ideal > 0
}

// Point is the outcome of the resonance study at one cluster size.
type Point struct {
	Nodes int
	// MeanSlowdown is the expected job slowdown versus the noise-free
	// time (1.0 = no slowdown).
	MeanSlowdown float64
	// P99Slowdown is the 99th percentile job slowdown.
	P99Slowdown float64
	// ProbIterDelayed is the probability that a single global iteration
	// is delayed beyond 1% of the ideal iteration time.
	ProbIterDelayed float64
}

// Resonance composes clusters of the given sizes from the node sample.
// Each of `draws` simulated jobs executes `iters` global iterations; each
// node's per-iteration time is an independent draw from the empirical
// distribution, and the global iteration takes the maximum across nodes.
// It is ResonanceOpt with a sequential (but identically seeded) pool.
func Resonance(ns NodeSample, nodes []int, iters, draws int, rng *sim.RNG) []Point {
	return ResonanceOpt(ns, nodes, iters, draws, rng, 1)
}

// ResonanceOpt is Resonance with the Monte-Carlo draws fanned out over a
// bounded worker pool (workers <= 0 selects GOMAXPROCS). Every simulated
// job uses a random stream derived purely from (rng seed, node-size index,
// draw index), and results land in index-addressed slots, so the output is
// identical for every worker count.
func ResonanceOpt(ns NodeSample, nodes []int, iters, draws int, rng *sim.RNG, workers int) []Point {
	if !ns.Valid() {
		panic("cluster: empty node sample")
	}
	if iters <= 0 || draws <= 0 {
		panic("cluster: non-positive iters or draws")
	}
	// Sort a copy so we can draw via inverse CDF with interpolation-free
	// indexing (empirical bootstrap).
	emp := append([]float64(nil), ns.IterationSec...)
	sort.Float64s(emp)

	out := make([]Point, 0, len(nodes))
	for ni, n := range nodes {
		n := n
		sizeRNG := rng.Split(uint64(ni))
		slowdowns := make([]float64, draws)
		delayedByDraw := make([]int, draws)
		pool.ForN(draws, workers, func(d int) {
			r := sizeRNG.Split(uint64(d))
			var total float64
			delayed := 0
			for it := 0; it < iters; it++ {
				// max over n independent node draws; equivalently one
				// draw from the max-order statistic: look up the
				// u^(1/n) quantile of the empirical distribution.
				q := stats.MaxOfN(r.Float64(), n)
				idx := int(q * float64(len(emp)))
				if idx >= len(emp) {
					idx = len(emp) - 1
				}
				t := emp[idx]
				total += t
				if t > ns.Ideal*1.01 {
					delayed++
				}
			}
			slowdowns[d] = total / (float64(iters) * ns.Ideal)
			delayedByDraw[d] = delayed
		})
		delayed := 0
		for _, c := range delayedByDraw {
			delayed += c
		}
		sum := stats.Summarize(slowdowns)
		out = append(out, Point{
			Nodes:           n,
			MeanSlowdown:    sum.Mean,
			P99Slowdown:     sum.P99,
			ProbIterDelayed: float64(delayed) / float64(draws*iters),
		})
	}
	return out
}

// Format renders resonance points as the text analogue of a scaling figure.
func Format(points []Point) string {
	var b strings.Builder
	b.WriteString("Noise resonance: job slowdown vs cluster size\n")
	b.WriteString("(per-node iteration times drawn from the measured single-node distribution;\n")
	b.WriteString(" a global barrier takes the per-iteration maximum across nodes)\n\n")
	fmt.Fprintf(&b, "%8s %14s %14s %18s\n",
		"nodes", "mean slowdown", "p99 slowdown", "P(iter delayed)")
	for _, p := range points {
		bar := strings.Repeat("#", int((p.MeanSlowdown-1)*200))
		if len(bar) > 40 {
			bar = bar[:40]
		}
		fmt.Fprintf(&b, "%8d %14.4f %14.4f %18.4f  %s\n",
			p.Nodes, p.MeanSlowdown, p.P99Slowdown, p.ProbIterDelayed, bar)
	}
	return b.String()
}
