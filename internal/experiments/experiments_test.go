package experiments

import (
	"strings"
	"testing"

	"hplsim/internal/nas"
	"hplsim/internal/stats"
	"hplsim/internal/topo"
)

// gather runs a profile under a scheme and summarises times/migrations/
// context switches.
func gather(t *testing.T, bench string, class byte, scheme Scheme, reps int, seed uint64) (times, mig, ctx stats.Summary) {
	t.Helper()
	rs := RunMany(Options{Profile: nas.MustGet(bench, class), Scheme: scheme, Seed: seed}, reps)
	el := make([]float64, len(rs))
	mg := make([]float64, len(rs))
	cx := make([]float64, len(rs))
	for i, r := range rs {
		if !r.Completed {
			t.Fatalf("run %d did not complete", i)
		}
		el[i], mg[i], cx[i] = r.ElapsedSec, r.Migrations(), r.CtxSwitches()
	}
	return stats.Summarize(el), stats.Summarize(mg), stats.Summarize(cx)
}

func TestHPLMigrationFloor(t *testing.T) {
	// Table Ib: HPL performs only the startup migrations (~10-14: eight
	// rank placements, mpiexec, chrt, perf, plus post-app balancing).
	_, mig, _ := gather(t, "is", 'A', HPL, 15, 42)
	if mig.Mean < 7 || mig.Mean > 20 {
		t.Fatalf("HPL migrations avg = %.1f, want ~10-14", mig.Mean)
	}
	if mig.Max > 30 {
		t.Fatalf("HPL migrations max = %.0f, want < 30", mig.Max)
	}
}

func TestHPLContextSwitchBaseline(t *testing.T) {
	// Table Ib: context switches under HPL sit near a constant baseline
	// (~300-400) and do not scale with the data-set size.
	_, _, ctxA := gather(t, "is", 'A', HPL, 10, 43)
	_, _, ctxB := gather(t, "is", 'B', HPL, 10, 43)
	for _, c := range []stats.Summary{ctxA, ctxB} {
		if c.Mean < 250 || c.Mean > 500 {
			t.Fatalf("HPL ctx switches avg = %.1f, want ~300-400", c.Mean)
		}
	}
	// Class B is 5x longer than class A; the baseline must not scale
	// with it (paper: 347 vs 355 for is).
	if ctxB.Mean > ctxA.Mean*1.4 {
		t.Fatalf("HPL ctx switches scale with data set: A=%.0f B=%.0f",
			ctxA.Mean, ctxB.Mean)
	}
}

func TestStdNoiseExceedsHPL(t *testing.T) {
	// Table I: the standard kernel migrates and switches far more.
	_, migStd, ctxStd := gather(t, "cg", 'A', Std, 15, 44)
	_, migHPL, ctxHPL := gather(t, "cg", 'A', HPL, 15, 44)
	if migStd.Mean < migHPL.Mean*2 {
		t.Fatalf("std migrations (%.1f) not clearly above HPL (%.1f)",
			migStd.Mean, migHPL.Mean)
	}
	if ctxStd.Mean < ctxHPL.Mean {
		t.Fatalf("std ctx switches (%.1f) below HPL (%.1f)",
			ctxStd.Mean, ctxHPL.Mean)
	}
}

func TestHPLVarianceCollapse(t *testing.T) {
	// Table II's headline: HPL collapses run-to-run variation to a few
	// percent while the standard kernel varies wildly.
	timesStd, _, _ := gather(t, "is", 'A', Std, 25, 45)
	timesHPL, _, _ := gather(t, "is", 'A', HPL, 25, 45)
	if timesHPL.VarPct() > 5 {
		t.Fatalf("HPL variation = %.1f%%, want < 5%%", timesHPL.VarPct())
	}
	if timesStd.VarPct() < timesHPL.VarPct()*3 {
		t.Fatalf("std variation (%.1f%%) not clearly above HPL (%.1f%%)",
			timesStd.VarPct(), timesHPL.VarPct())
	}
	// HPL's best time is at least as good as the standard kernel's.
	if timesHPL.Min > timesStd.Min*1.03 {
		t.Fatalf("HPL min (%.3f) worse than std min (%.3f)",
			timesHPL.Min, timesStd.Min)
	}
}

func TestCalibrationMatchesPaperHPLMinima(t *testing.T) {
	// The HPL minimum of every configuration must sit within a few
	// percent of the paper's Table II HPL minimum (the calibration
	// anchor). Class A profiles only, to keep the test quick.
	for _, prof := range nas.All() {
		if prof.Class != 'A' || prof.Bench == "ep" || prof.Bench == "lu" {
			continue // ep/lu class A take tens of simulated seconds
		}
		rs := RunMany(Options{Profile: prof, Scheme: HPL, Seed: 46}, 5)
		min := rs[0].ElapsedSec
		for _, r := range rs {
			if r.ElapsedSec < min {
				min = r.ElapsedSec
			}
		}
		lo, hi := prof.TargetSeconds*0.97, prof.TargetSeconds*1.12
		if min < lo || min > hi {
			t.Errorf("%s: HPL min %.3fs outside [%.3f, %.3f] (target %.2f)",
				prof.Name(), min, lo, hi, prof.TargetSeconds)
		}
	}
}

func TestRTIntermediate(t *testing.T) {
	// Figure 4: the RT scheduler is much more stable than standard CFS
	// but is not noise-free: throttling shifts it measurably above HPL.
	timesStd, _, _ := gather(t, "is", 'A', Std, 20, 47)
	timesRT, migRT, _ := gather(t, "is", 'A', RT, 20, 47)
	timesHPL, migHPL, _ := gather(t, "is", 'A', HPL, 20, 47)
	if timesRT.VarPct() > timesStd.VarPct() {
		t.Fatalf("RT variation (%.1f%%) above std (%.1f%%)",
			timesRT.VarPct(), timesStd.VarPct())
	}
	if migRT.Mean < migHPL.Mean*2 {
		t.Fatalf("RT migrations (%.1f) should clearly exceed HPL (%.1f)",
			migRT.Mean, migHPL.Mean)
	}
	_ = timesHPL
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(Options{Profile: nas.MustGet("is", 'A'), Scheme: Std, Seed: 48})
	b := Run(Options{Profile: nas.MustGet("is", 'A'), Scheme: Std, Seed: 48})
	if a.ElapsedSec != b.ElapsedSec || a.Window != b.Window {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
	c := Run(Options{Profile: nas.MustGet("is", 'A'), Scheme: Std, Seed: 49})
	if a.ElapsedSec == c.ElapsedSec && a.Window == c.Window {
		t.Fatal("different seeds produced identical results")
	}
}

func TestFigure3Correlation(t *testing.T) {
	// Figures 3a/3b: execution time correlates positively with both CPU
	// migrations and context switches under the standard scheduler.
	migr, ctx := Figure3(25, 50, 0)
	if migr.R <= 0.1 {
		t.Fatalf("time-vs-migrations correlation r = %.3f, want clearly positive", migr.R)
	}
	if ctx.R <= 0.1 {
		t.Fatalf("time-vs-ctxsw correlation r = %.3f, want clearly positive", ctx.R)
	}
}

func TestTablesRender(t *testing.T) {
	rows := TableI(HPL, 3, 51, Exec{}, topo.Topology{})
	if len(rows) != 12 {
		t.Fatalf("Table I rows = %d, want 12", len(rows))
	}
	out := FormatTableI("Table Ib", rows)
	if !strings.Contains(out, "ep.A.8") || !strings.Contains(out, "mg.B.8") {
		t.Fatalf("Table I missing rows:\n%s", out)
	}
}

func TestAblationTickMonotone(t *testing.T) {
	// A6: more ticks, more stolen time. HZ=1000 must not be faster than
	// HZ=100 on average.
	rows := AblationTick(nas.MustGet("is", 'A'), 8, 52, 0)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[2].Times.Mean < rows[0].Times.Mean*0.999 {
		t.Fatalf("HZ=1000 (%.4f) faster than HZ=100 (%.4f)",
			rows[2].Times.Mean, rows[0].Times.Mean)
	}
}

func TestAblationPlacement(t *testing.T) {
	// A2: with 4 ranks, topology-aware placement (one rank per core)
	// beats naive first-fit (two SMT siblings per core) by roughly the
	// SMT factor.
	rows := AblationPlacement(3, 53, 0)
	topoAware, naive := rows[0].Times.Mean, rows[1].Times.Mean
	if naive < topoAware*1.2 {
		t.Fatalf("naive placement (%.2fs) not clearly slower than topology-aware (%.2fs)",
			naive, topoAware)
	}
}

func TestResonanceGrowsWithNodes(t *testing.T) {
	// Section II: noise amplifies with scale under the standard kernel
	// and stays flat under HPL.
	std, hpl := ResonanceStudy([]int{1, 64, 1024}, 6, 50, 200, 54, 0)
	if std[2].MeanSlowdown <= std[0].MeanSlowdown {
		t.Fatalf("std slowdown does not grow with nodes: %+v", std)
	}
	if hpl[2].MeanSlowdown > 1.1 {
		t.Fatalf("HPL slowdown at 1024 nodes = %.3f, want ~1.0", hpl[2].MeanSlowdown)
	}
	if std[2].MeanSlowdown < hpl[2].MeanSlowdown {
		t.Fatalf("std (%.3f) below HPL (%.3f) at scale",
			std[2].MeanSlowdown, hpl[2].MeanSlowdown)
	}
}

func TestAblationNettickImproves(t *testing.T) {
	// A7: the adaptive housekeeping tick removes most timer micro-noise;
	// HZ=1000 + NETTICK must beat plain HZ=1000 and be at least as good
	// as HZ=250.
	rows := AblationNettick(nas.MustGet("is", 'A'), 6, 60, 0)
	hz1000, hz250, nettick := rows[0].Times.Mean, rows[1].Times.Mean, rows[2].Times.Mean
	if nettick > hz1000 {
		t.Fatalf("NETTICK (%.4f) slower than plain HZ=1000 (%.4f)", nettick, hz1000)
	}
	if nettick > hz250*1.005 {
		t.Fatalf("NETTICK (%.4f) clearly slower than HZ=250 (%.4f)", nettick, hz250)
	}
}

func TestEnergyStudyTradeoff(t *testing.T) {
	rows := EnergyStudy(61)
	aware, packed := rows[0], rows[1]
	// Spreading must be faster (no SMT sharing); packing must draw less
	// average power (fewer cores awake).
	if aware.Seconds >= packed.Seconds {
		t.Fatalf("topology-aware (%.2fs) not faster than packed (%.2fs)",
			aware.Seconds, packed.Seconds)
	}
	if packed.Watts >= aware.Watts {
		t.Fatalf("packed (%.1fW) not lower power than spread (%.1fW)",
			packed.Watts, aware.Watts)
	}
}

func TestHPLApproachesCNK(t *testing.T) {
	// The paper's framing: HPL makes a monolithic kernel "behave like a
	// micro-kernel". Against the CNK bound (dedicated node, no daemons,
	// housekeeping tick), HPL's mean must be within 1.5% and its
	// best-case within 0.5%.
	hpl, _, _ := gather(t, "is", 'A', HPL, 10, 62)
	cnk, _, _ := gather(t, "is", 'A', CNK, 10, 62)
	if hpl.Min > cnk.Min*1.005 {
		t.Fatalf("HPL best (%.4f) more than 0.5%% behind CNK (%.4f)",
			hpl.Min, cnk.Min)
	}
	if hpl.Mean > cnk.Mean*1.015 {
		t.Fatalf("HPL mean (%.4f) more than 1.5%% behind CNK (%.4f)",
			hpl.Mean, cnk.Mean)
	}
	// And the ordering is right: a dedicated kernel is never slower.
	if cnk.Mean > hpl.Mean*1.005 {
		t.Fatalf("CNK (%.4f) slower than HPL (%.4f)?", cnk.Mean, hpl.Mean)
	}
}

func TestSyncStudyStructure(t *testing.T) {
	rows := SyncStudy(3, 70, 0)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// The wavefront reference must be slower than the barrier reference
	// (the pipeline serialises the critical path)...
	if rows[2].Times.Mean <= rows[0].Times.Mean {
		t.Fatalf("wavefront HPL (%.3f) not slower than barrier HPL (%.3f)",
			rows[2].Times.Mean, rows[0].Times.Mean)
	}
	// ...and noise must cost something in both structures.
	if rows[1].Times.Mean < rows[0].Times.Mean {
		t.Fatal("std barrier run beat the HPL reference")
	}
	if rows[3].Times.Mean < rows[2].Times.Mean {
		t.Fatal("std wavefront run beat the HPL reference")
	}
	out := FormatSyncStudy(rows)
	if !strings.Contains(out, "noise overhead") {
		t.Fatalf("summary line missing:\n%s", out)
	}
}

func TestSchemeStringsRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Schemes() {
		s := sc.String()
		if seen[s] {
			t.Fatalf("duplicate scheme name %q", s)
		}
		seen[s] = true
	}
	for _, want := range []string{"std", "rt", "hpl", "pinned", "nice", "cnk"} {
		if !seen[want] {
			t.Fatalf("scheme %q missing from Schemes()", want)
		}
	}
}

func TestResultCarriesStatsAndEnergy(t *testing.T) {
	r := Run(Options{Profile: nas.MustGet("is", 'A'), Scheme: Std, Seed: 71})
	if r.Energy.Joules <= 0 {
		t.Fatal("energy report missing")
	}
	if r.Sched.BalanceCalls == 0 {
		t.Fatal("schedstat missing under the standard scheduler")
	}
	if len(r.IterationSec) == 0 {
		t.Fatal("iteration times missing")
	}
}
