package experiments

import (
	"fmt"
	"strings"

	"hplsim/internal/kernel"
	"hplsim/internal/mpi"
	"hplsim/internal/nas"
	"hplsim/internal/schedstat"
	"hplsim/internal/sim"
	"hplsim/internal/stats"
	"hplsim/internal/task"
	"hplsim/internal/topo"
)

// Figure1 reproduces the paper's Figure 1: the effect of process preemption
// on a parallel application. Four CFS ranks iterate compute/barrier on four
// dedicated cores of a quiet node; midway, a single daemon wakes on rank0's
// CPU and preempts it. The rendered timeline shows every other rank idling
// at the barrier until the delayed rank arrives.
func Figure1(seed uint64) string {
	col := schedstat.NewCollector()
	k := kernel.New(kernel.Config{Seed: seed, Tracer: col})

	const (
		iters    = 4
		iterWork = 20 * sim.Millisecond
	)
	// Pin one rank per physical core so the timeline is easy to read;
	// pinning also matches the figure's intent (the preemption effect,
	// not placement effects).
	w := mpi.NewWorld(k, mpi.Config{
		Ranks:         4,
		Policy:        task.Normal,
		SpinThreshold: 2 * sim.Millisecond,
		PinCPUs:       []int{0, 2, 4, 6},
	})
	w.OnComplete = func() {
		k.Eng.After(5*sim.Millisecond, k.Stop)
	}
	w.Launch(nil, func(r *mpi.Rank) {
		iter := 0
		var step func()
		step = func() {
			if iter == iters {
				r.Finish()
				return
			}
			iter++
			r.Compute(iterWork, func() { r.Barrier(step) })
		}
		step()
	})

	// One daemon, aimed at rank0's CPU midway through the second
	// iteration: the Figure 1 scenario of a kernel/user daemon preempting
	// one process of the parallel application.
	k.Eng.After(28*sim.Millisecond, func() {
		cpu := w.Ranks[0].P.T.CPU
		k.Spawn(nil, kernel.Attr{
			Name:     "daemon",
			Affinity: maskOf(cpu),
		}, func(p *kernel.Proc) {
			p.Compute(10*sim.Millisecond, func() { p.Exit() })
		})
	})

	k.Run(sim.Time(sim.Second))

	var b strings.Builder
	b.WriteString("Figure 1: effects of process pre-emption on a parallel application\n")
	b.WriteString("(ranks 0-3 compute 20ms per iteration and synchronise at a barrier;\n")
	b.WriteString(" a daemon 'd' preempts rank 0 at t=28ms; '.' is idle/barrier wait)\n\n")
	b.WriteString(schedstat.Gantt(col.Events, 0, sim.Time(110*sim.Millisecond), 100))
	return b.String()
}

// DistributionResult is the outcome of a distribution experiment
// (Figures 2 and 4).
type DistributionResult struct {
	Scheme  Scheme
	Times   stats.Summary
	Hist    *stats.Histogram
	Results []Result
}

// distribution runs ep.A.8 reps times under the scheme and builds the
// execution-time histogram.
func distribution(scheme Scheme, reps int, seed uint64, workers int) DistributionResult {
	prof := nas.MustGet("ep", 'A')
	rs := RunManyOpt(Options{Profile: prof, Scheme: scheme, Seed: seed}, reps, workers)
	el := make([]float64, len(rs))
	for i, r := range rs {
		el[i] = r.ElapsedSec
	}
	sum := stats.Summarize(el)
	// The paper's histograms span 8.5 to 15 seconds.
	h := stats.NewHistogram(8.4, 15.0, 33)
	for _, t := range el {
		h.Add(t)
	}
	return DistributionResult{Scheme: scheme, Times: sum, Hist: h, Results: rs}
}

// Figure2 reproduces the execution-time distribution of ep.A.8 under the
// standard Linux scheduler (1000 runs in the paper).
func Figure2(reps int, seed uint64, workers int) DistributionResult {
	return distribution(Std, reps, seed, workers)
}

// Figure4 reproduces the execution-time distribution of ep.A.8 under the
// real-time scheduler.
func Figure4(reps int, seed uint64, workers int) DistributionResult {
	return distribution(RT, reps, seed, workers)
}

// FormatDistribution renders a distribution result like Figures 2 and 4.
func FormatDistribution(label string, d DistributionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", label)
	fmt.Fprintf(&b, "min=%.2fs avg=%.2fs max=%.2fs var=%.2f%%\n\n",
		d.Times.Min, d.Times.Mean, d.Times.Max, d.Times.VarPct())
	b.WriteString(d.Hist.Render(60, "execution time (s) vs runs"))
	return b.String()
}

// CorrelationResult holds Figure 3's data: execution time against a
// software performance event.
type CorrelationResult struct {
	Event   string
	X, Y    []float64 // event count, execution time
	R       float64   // Pearson correlation
	Slope   float64   // seconds per event
	MeansX  []float64 // binned event counts
	MeansY  []float64 // mean execution time per bin
	Summary stats.Summary
}

// Figure3 reproduces Figures 3a and 3b: for ep.A.8 under the standard
// scheduler, execution time as a function of CPU migrations (3a) and
// context switches (3b), with the correlation the paper reads off the
// plots. The same runs serve both panels, as in the paper.
func Figure3(reps int, seed uint64, workers int) (migr, ctx CorrelationResult) {
	d := distribution(Std, reps, seed, workers)
	times := make([]float64, len(d.Results))
	migs := make([]float64, len(d.Results))
	ctxs := make([]float64, len(d.Results))
	for i, r := range d.Results {
		times[i] = r.ElapsedSec
		migs[i] = r.Migrations()
		ctxs[i] = r.CtxSwitches()
	}
	build := func(event string, xs []float64) CorrelationResult {
		slope, _ := stats.LinearFit(xs, times)
		bx, by := stats.Bin2D(xs, times)
		return CorrelationResult{
			Event: event, X: xs, Y: times,
			R: stats.Pearson(xs, times), Slope: slope,
			MeansX: bx, MeansY: by,
			Summary: stats.Summarize(times),
		}
	}
	return build("cpu-migrations", migs), build("context-switches", ctxs)
}

// FormatCorrelation renders one Figure 3 panel as a binned series plus the
// correlation statistics.
func FormatCorrelation(label string, c CorrelationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: execution time vs %s\n", label, c.Event)
	fmt.Fprintf(&b, "Pearson r = %.3f, slope = %.4f s/event, n = %d\n",
		c.R, c.Slope, len(c.X))
	// Quantile-bin the event counts into ten groups for a compact series.
	type pair struct{ x, y float64 }
	pairs := make([]pair, len(c.X))
	for i := range c.X {
		pairs[i] = pair{c.X[i], c.Y[i]}
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].x < pairs[j-1].x; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	nb := 10
	if len(pairs) < nb {
		nb = len(pairs)
	}
	fmt.Fprintf(&b, "%12s %12s %6s\n", c.Event, "mean time(s)", "n")
	for i := 0; i < nb; i++ {
		lo, hi := i*len(pairs)/nb, (i+1)*len(pairs)/nb
		if hi <= lo {
			continue
		}
		var sx, sy float64
		for _, p := range pairs[lo:hi] {
			sx += p.x
			sy += p.y
		}
		n := float64(hi - lo)
		fmt.Fprintf(&b, "%12.1f %12.3f %6d\n", sx/n, sy/n, hi-lo)
	}
	return b.String()
}

func maskOf(cpu int) topo.CPUMask { return topo.MaskOf(cpu) }
