package experiments

import (
	"fmt"
	"strings"

	"hplsim/internal/nas"
	"hplsim/internal/stats"
	"hplsim/internal/topo"
)

// Exec bundles the host-side execution knobs the table producers thread
// into Options: the replication worker pool and the fast-forward tick mode.
// Neither changes a single simulated result — the worker-count and
// fast-forward equivalences are pinned by regression tests — so every
// table is identical at any Exec.
type Exec struct {
	// Workers bounds the replication pool (0 = GOMAXPROCS).
	Workers int
	// FastForward elides quiescent timer ticks (Options.FastForward).
	FastForward bool
}

// TableIRow is one row of the paper's Table I: scheduler OS noise (CPU
// migrations and context switches) for one NAS configuration.
type TableIRow struct {
	Bench      string
	Migrations stats.Summary
	CtxSw      stats.Summary
}

// TableI reproduces Table Ia (scheme Std) or Ib (scheme HPL): for every NAS
// configuration, the min/avg/max of CPU migrations and context switches
// over reps runs. machine overrides the topology (zero value = the paper's
// POWER6).
func TableI(scheme Scheme, reps int, seed uint64, ex Exec, machine topo.Topology) []TableIRow {
	var rows []TableIRow
	for _, prof := range nas.All() {
		rs := RunManyOpt(Options{Profile: prof, Scheme: scheme, Seed: seed, Topo: machine,
			FastForward: ex.FastForward}, reps, ex.Workers)
		mig := make([]float64, len(rs))
		ctx := make([]float64, len(rs))
		for i, r := range rs {
			mig[i] = r.Migrations()
			ctx[i] = r.CtxSwitches()
		}
		rows = append(rows, TableIRow{
			Bench:      prof.Name(),
			Migrations: stats.Summarize(mig),
			CtxSw:      stats.Summarize(ctx),
		})
	}
	return rows
}

// FormatTableI renders rows in the paper's layout.
func FormatTableI(title string, rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s | %26s | %29s\n", "Bench", "CPU Migrations", "Context Switches")
	fmt.Fprintf(&b, "%-8s | %8s %8s %8s | %9s %9s %9s\n",
		"", "Min.", "Avg.", "Max.", "Min.", "Avg.", "Max.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %8.0f %8.2f %8.0f | %9.0f %9.2f %9.0f\n",
			r.Bench,
			r.Migrations.Min, r.Migrations.Mean, r.Migrations.Max,
			r.CtxSw.Min, r.CtxSw.Mean, r.CtxSw.Max)
	}
	return b.String()
}

// TableIIRow is one row of the paper's Table II: execution time statistics
// under the standard kernel and under HPL.
type TableIIRow struct {
	Bench string
	Std   stats.Summary
	HPL   stats.Summary
}

// TableII reproduces Table II: execution time min/avg/max and Var% for
// every NAS configuration under Std and HPL. machine overrides the topology
// (zero value = the paper's POWER6).
func TableII(reps int, seed uint64, ex Exec, machine topo.Topology) []TableIIRow {
	var rows []TableIIRow
	for _, prof := range nas.All() {
		row := TableIIRow{Bench: prof.Name()}
		for _, scheme := range []Scheme{Std, HPL} {
			rs := RunManyOpt(Options{Profile: prof, Scheme: scheme, Seed: seed, Topo: machine,
				FastForward: ex.FastForward}, reps, ex.Workers)
			el := make([]float64, len(rs))
			for i, r := range rs {
				el[i] = r.ElapsedSec
			}
			s := stats.Summarize(el)
			if scheme == Std {
				row.Std = s
			} else {
				row.HPL = s
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTableII renders rows in the paper's layout.
func FormatTableII(rows []TableIIRow) string {
	var b strings.Builder
	b.WriteString("Table II: NAS Execution Time: Std. Linux VS HPL (seconds)\n")
	fmt.Fprintf(&b, "%-8s | %31s | %31s\n", "Bench", "Std. Linux", "HPL")
	fmt.Fprintf(&b, "%-8s | %7s %7s %7s %8s | %7s %7s %7s %8s\n",
		"", "Min.", "Avg.", "Max.", "Var.%", "Min.", "Avg.", "Max.", "Var.%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %7.2f %7.2f %7.2f %8.2f | %7.2f %7.2f %7.2f %8.2f\n",
			r.Bench,
			r.Std.Min, r.Std.Mean, r.Std.Max, r.Std.VarPct(),
			r.HPL.Min, r.HPL.Mean, r.HPL.Max, r.HPL.VarPct())
	}
	return b.String()
}

// SchemeTimes collects execution-time statistics for one profile under one
// scheme (used by ablations and the CLI).
func SchemeTimes(prof nas.Profile, scheme Scheme, reps int, seed uint64, workers int) stats.Summary {
	rs := RunManyOpt(Options{Profile: prof, Scheme: scheme, Seed: seed}, reps, workers)
	el := make([]float64, len(rs))
	for i, r := range rs {
		el[i] = r.ElapsedSec
	}
	return stats.Summarize(el)
}
