package experiments

import (
	"bytes"
	"testing"

	"hplsim/internal/nas"
	"hplsim/internal/schedstat"
	"hplsim/internal/topo"
)

// wideTopo is a multi-word machine (96 CPUs, masks span two words) small
// enough for quick equivalence runs.
func wideTopo(t *testing.T) topo.Topology {
	t.Helper()
	m, err := topo.Parse("2x24x2")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNaiveRunEquivalence pins the contract of the kernel's Naive switch on
// a multi-word topology: the naive reference scans and the optimized word
// scans must produce bitwise-identical runs — same observables, same event
// traffic, and the same scheduling trace event for event. Only host cost
// may differ.
func TestNaiveRunEquivalence(t *testing.T) {
	machine := wideTopo(t)
	for _, scheme := range []Scheme{Std, HPL} {
		for _, ff := range []bool{false, true} {
			opt := Options{
				Profile: nas.MustGet("is", 'A'), Scheme: scheme, Seed: 91,
				Topo: machine, FastForward: ff,
			}
			var naiveTrace, optTrace bytes.Buffer
			opt.Naive = true
			opt.Tracer = schedstat.NewWriter(&naiveTrace)
			naive := Run(opt)
			opt.Naive = false
			opt.Tracer = schedstat.NewWriter(&optTrace)
			fast := Run(opt)

			if naive.ElapsedSec != fast.ElapsedSec {
				t.Errorf("%v ff=%v: elapsed %v vs %v", scheme, ff, naive.ElapsedSec, fast.ElapsedSec)
			}
			if naive.Window != fast.Window {
				t.Errorf("%v ff=%v: perf window diverges:\n naive %+v\n opt   %+v",
					scheme, ff, naive.Window, fast.Window)
			}
			if naive.Sched != fast.Sched {
				t.Errorf("%v ff=%v: sched stats diverge:\n naive %+v\n opt   %+v",
					scheme, ff, naive.Sched, fast.Sched)
			}
			if naive.Energy != fast.Energy {
				t.Errorf("%v ff=%v: energy diverges:\n naive %+v\n opt   %+v",
					scheme, ff, naive.Energy, fast.Energy)
			}
			if naive.EventsDispatched != fast.EventsDispatched ||
				naive.LaneFires != fast.LaneFires ||
				naive.TicksCoalesced != fast.TicksCoalesced {
				t.Errorf("%v ff=%v: engine traffic diverges: naive %d/%d/%d vs opt %d/%d/%d",
					scheme, ff,
					naive.EventsDispatched, naive.LaneFires, naive.TicksCoalesced,
					fast.EventsDispatched, fast.LaneFires, fast.TicksCoalesced)
			}
			if !bytes.Equal(naiveTrace.Bytes(), optTrace.Bytes()) {
				t.Errorf("%v ff=%v: scheduling traces diverge (%d vs %d bytes)",
					scheme, ff, naiveTrace.Len(), optTrace.Len())
			}
			if t.Failed() {
				t.Fatalf("naive/optimized divergence under scheme %v ff=%v", scheme, ff)
			}
		}
	}
}

// TestWideNodeHPLSmoke boots the 1024-CPU node of the scaling study
// (4 chips x 128 cores x 2 threads) and runs a full measured HPL scenario
// on it: the run must complete, and HPL's fork-time-only contract must hold
// at width — each rank migrates at most once, at placement.
func TestWideNodeHPLSmoke(t *testing.T) {
	machine, err := topo.Parse("4x128x2")
	if err != nil {
		t.Fatal(err)
	}
	prof := nas.MustGet("is", 'A')
	r := Run(Options{
		Profile: prof, Scheme: HPL, Seed: 92,
		Topo: machine, FastForward: true,
	})
	if !r.Completed {
		t.Fatal("1024-CPU HPL run did not complete")
	}
	if r.ElapsedSec <= 0 {
		t.Fatalf("elapsed %v", r.ElapsedSec)
	}
	if got, max := r.Window.Migrations, uint64(prof.Ranks)*3; got > max {
		t.Errorf("window migrations %d exceed %d: dynamic balancing leaked into HPL at width", got, max)
	}
}
