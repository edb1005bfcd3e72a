// Package experiments reproduces the paper's measurement methodology and
// each of its tables and figures.
//
// A single Run boots a fresh simulated node with the standard daemon
// population and storm process, then executes the paper's command chain
//
//	perf stat -a  ->  chrt --hpc  ->  mpiexec -n 8  ->  ranks
//
// recording the NAS-reported execution time and the perf window's context
// switches and CPU migrations. The scheduler scheme selects the paper's
// configurations: standard CFS, the RT scheduler (Figure 4), HPL (the
// contribution), and the alternatives Section IV argues against (static
// pinning, nice -20) plus the ablations in DESIGN.md.
package experiments

import (
	"fmt"

	"hplsim/internal/kernel"
	"hplsim/internal/mpi"
	"hplsim/internal/nas"
	"hplsim/internal/noise"
	"hplsim/internal/perf"
	"hplsim/internal/pool"
	"hplsim/internal/sched"
	"hplsim/internal/sim"
	"hplsim/internal/task"
	"hplsim/internal/topo"
)

// Scheme selects the scheduler configuration of a run.
type Scheme int

const (
	// Std is the unmodified kernel: ranks under CFS, standard balancing.
	Std Scheme = iota
	// RT runs the ranks under SCHED_RR priority 50 via chrt -r
	// (Figure 4).
	RT
	// HPL is the paper's system: ranks in the HPC class, fork-time
	// topology-aware placement, no dynamic balancing while HPC tasks
	// are alive.
	HPL
	// HPLDynamic is ablation A1: the HPC class with dynamic balancing
	// left enabled for all classes.
	HPLDynamic
	// HPLNaive is ablation A2: HPL with first-fit placement instead of
	// the topology-aware spread.
	HPLNaive
	// Pinned is CFS with each rank bound to one hardware thread via
	// sched_setaffinity (the static alternative of Section IV).
	Pinned
	// Nice is CFS with ranks at nice -20 (the priority alternative of
	// Section IV).
	Nice
	// CNK models the lightweight-kernel gold standard of the paper's
	// related work (IBM's Compute Node Kernel): a dedicated compute
	// node with no daemon population, no maintenance storms, no
	// launcher helpers, and only a housekeeping tick. It bounds the
	// best any scheduler policy could do, quantifying the paper's claim
	// that HPL makes a monolithic kernel "behave like a micro-kernel".
	CNK
)

func (s Scheme) String() string {
	switch s {
	case Std:
		return "std"
	case RT:
		return "rt"
	case HPL:
		return "hpl"
	case HPLDynamic:
		return "hpl-dynamic"
	case HPLNaive:
		return "hpl-naive"
	case Pinned:
		return "pinned"
	case Nice:
		return "nice"
	case CNK:
		return "cnk"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists all runnable schemes.
func Schemes() []Scheme {
	return []Scheme{Std, RT, HPL, HPLDynamic, HPLNaive, Pinned, Nice, CNK}
}

// Options parameterise one run.
type Options struct {
	Profile nas.Profile
	Scheme  Scheme
	Seed    uint64
	// Topo overrides the machine topology (zero value = the paper's
	// POWER6 2x2x2). Wide nodes (e.g. 4x128x2) are fully supported; the
	// rank count still comes from the NAS profile, so oversubscription
	// or undersubscription follows from the topology choice.
	Topo topo.Topology
	// HZ overrides the tick frequency (0 = default 250).
	HZ int
	// AdaptiveTick enables the NETTICK-style housekeeping tick for lone
	// HPC tasks (Section V).
	AdaptiveTick bool
	// FastForward enables the kernel's virtual-time fast-forward: ticks
	// that provably decide nothing are replayed in batch instead of being
	// dispatched. Trace-equivalent to the default mode (the schedcheck
	// fast-forward oracle enforces it); changes only wall-clock cost and
	// the engine traffic metrics.
	FastForward bool
	// Naive selects the kernel's reference implementations of the wide-node
	// hot paths (linear lane scans, full-topology balance sweeps, per-CPU
	// tick catch-up): scheduling behaviour is identical, only the host cost
	// changes. It is the reference implementation TestNaiveRunEquivalence
	// checks the optimised scans against.
	Naive bool
	// NoDaemons suppresses the background daemon population.
	NoDaemons bool
	// NoStorms suppresses the heavy-storm process.
	NoStorms bool
	// Storms overrides the storm configuration (nil = default).
	Storms *noise.StormConfig
	// Inject adds Ferreira-style fixed noise (resonance studies).
	Inject noise.Injection
	// Tracer, if set, records the run's timeline.
	Tracer kernel.Tracer
	// SpinThreshold overrides the MPI spin window (0 = default).
	SpinThreshold sim.Duration
	// Horizon caps the virtual runtime (0 = automatic).
	Horizon sim.Duration
	// Workers bounds the replication worker pool used by RunMany:
	// 0 = GOMAXPROCS, 1 = sequential. Results are independent of the
	// worker count (see RunManyOpt).
	Workers int
}

// Result is the outcome of one measured run.
type Result struct {
	// ElapsedSec is the NAS-reported execution time: rank launch to last
	// rank exit, in seconds.
	ElapsedSec float64
	// Window holds the perf event deltas over the measurement window.
	Window perf.Counters
	// Completed is false if the run hit the horizon (censored).
	Completed bool
	// IterationSec are the gaps between successive collective releases,
	// i.e. the per-iteration wall times seen by the barrier (used by the
	// cluster resonance study).
	IterationSec []float64
	// Sched are the scheduler's decision counters over the whole run.
	Sched sched.Stats
	// Energy is the node's integrated energy over the whole run.
	Energy kernel.EnergyReport
	// EventsDispatched counts heap events the engine dispatched over the
	// whole run (timer-lane firings are separate, in LaneFires); with
	// TicksCoalesced and VirtualSec it quantifies what fast-forward saves.
	EventsDispatched uint64
	// LaneFires counts timer-lane firings (delivered ticks).
	LaneFires uint64
	// TicksCoalesced counts ticks settled by fast-forward replay instead
	// of dispatch (0 in standard mode).
	TicksCoalesced uint64
	// VirtualSec is the virtual time the run covered, in seconds.
	VirtualSec float64
}

// EventsPerVirtualSec is the engine traffic rate: dispatched heap events
// plus delivered ticks per simulated second — the quantity fast-forward
// exists to shrink.
func (r Result) EventsPerVirtualSec() float64 {
	if r.VirtualSec <= 0 {
		return 0
	}
	return float64(r.EventsDispatched+r.LaneFires) / r.VirtualSec
}

// Migrations is shorthand for the window's migration count.
func (r Result) Migrations() float64 { return float64(r.Window.Migrations) }

// CtxSwitches is shorthand for the window's context-switch count.
func (r Result) CtxSwitches() float64 { return float64(r.Window.ContextSwitches) }

// launchDelay is when the perf command starts after boot, leaving the
// daemon population time to reach steady state.
const launchDelay = 150 * sim.Millisecond

// Run executes one full measured run.
func Run(opt Options) Result {
	prof := opt.Profile

	balance := sched.BalanceStandard
	switch opt.Scheme {
	case HPL, HPLNaive, CNK:
		balance = sched.BalanceHPL
	case HPLDynamic:
		balance = sched.BalanceHPLDynamic
	}
	if opt.Scheme == CNK {
		// A dedicated compute-node kernel: nothing else on the node.
		opt.NoDaemons = true
		opt.NoStorms = true
		opt.AdaptiveTick = true
	}

	k := kernel.New(kernel.Config{
		Topo:              opt.Topo,
		HZ:                opt.HZ,
		Balance:           balance,
		HPCNaivePlacement: opt.Scheme == HPLNaive,
		AdaptiveTick:      opt.AdaptiveTick,
		FastForward:       opt.FastForward,
		Naive:             opt.Naive,
		Seed:              opt.Seed,
		Tracer:            opt.Tracer,
	})

	if !opt.NoDaemons {
		noise.SpawnSystem(k, k.RNG(100))
	}
	if !opt.NoStorms {
		storms := noise.DefaultStorms()
		if opt.Storms != nil {
			storms = *opt.Storms
		}
		storms.Arm(k, k.RNG(101))
	}
	if opt.Inject.Frequency > 0 {
		opt.Inject.Arm(k, k.RNG(102))
	}

	// Scheduler scheme for the measured processes.
	rankPolicy, rankRTPrio, rankNice := task.Normal, 0, 0
	toolPolicy, toolRTPrio := task.Normal, 0
	switch opt.Scheme {
	case RT:
		rankPolicy, rankRTPrio = task.RR, 50
		toolPolicy, toolRTPrio = task.RR, 50
	case HPL, HPLDynamic, HPLNaive, CNK:
		rankPolicy = task.HPC
		toolPolicy = task.HPC
	case Nice:
		rankNice = -20
	}

	wcfg := prof.WorldConfig(rankPolicy, rankRTPrio, opt.SpinThreshold)
	wcfg.Nice = rankNice
	if opt.Scheme == Pinned {
		pins := make([]int, k.Topo.NumCPUs())
		for i := range pins {
			pins[i] = i
		}
		wcfg.PinCPUs = pins
	}

	world := mpi.NewWorld(k, wcfg)
	program := prof.Program(k.RNG(103))

	var res Result
	var window *perf.Window
	appDone := false
	world.OnComplete = func() { appDone = true }

	// The measurement chain: perf -> chrt -> mpiexec -> ranks.
	k.Spawn(nil, kernel.Attr{Name: "perf"}, func(pp *kernel.Proc) {
		pp.Sleep(launchDelay, func() {
			pp.Compute(2*sim.Millisecond, func() {
				// perf stat -a: the system-wide window opens just
				// before the measured command is forked.
				window = perf.Open(&k.Perf)
				pp.Spawn(kernel.Attr{Name: "chrt", Policy: toolPolicy, RTPrio: toolRTPrio},
					func(cp *kernel.Proc) {
						cp.Compute(sim.Millisecond, func() {
							runMpiexec(k, cp, world, program, toolPolicy, toolRTPrio,
								opt.Scheme == CNK, &appDone)
							cp.WaitChildren(func() {
								cp.Compute(500*sim.Microsecond, func() { cp.Exit() })
							})
						})
					})
				pp.WaitChildren(func() {
					// chrt exited: close the window and report.
					pp.Compute(sim.Millisecond, func() {
						res.Window = window.Close()
						res.Completed = true
						pp.Exit()
						// Small drain so teardown switches settle,
						// then end the run.
						k.Eng.After(20*sim.Millisecond, k.Stop)
					})
				})
			})
		})
	})

	horizon := opt.Horizon
	if horizon == 0 {
		horizon = sim.Seconds(prof.TargetSeconds*150) + 240*sim.Second
	}
	k.Run(sim.Time(horizon))

	if !res.Completed && window != nil {
		res.Window = window.Close()
	}
	if world.Elapsed() > 0 {
		res.ElapsedSec = world.Elapsed().Seconds()
	} else {
		// Censored: the app never finished within the horizon.
		res.ElapsedSec = horizon.Seconds()
	}
	if n := len(world.ReleaseTimes); n > 1 {
		res.IterationSec = make([]float64, 0, n-1)
		for i := 1; i < n; i++ {
			res.IterationSec = append(res.IterationSec,
				world.ReleaseTimes[i].Sub(world.ReleaseTimes[i-1]).Seconds())
		}
	}
	res.Sched = k.Sched.Stats()
	res.Energy = k.Energy()
	res.EventsDispatched = k.Eng.Dispatched
	res.LaneFires = k.Eng.LaneFires
	res.TicksCoalesced = k.Perf.TicksCoalesced
	res.VirtualSec = sim.Duration(k.Now()).Seconds()
	return res
}

// runMpiexec models the launcher: it forks short-lived helper processes
// (the launch/teardown noise of Table Ib's constant baseline), starts the
// ranks, and polls its children's stdio until they finish, like a real
// mpiexec. The poller is the "ninth task" whose RT-class wakeups trigger
// the balancing pathology of Section IV.
func runMpiexec(k *kernel.Kernel, chrt *kernel.Proc, world *mpi.World,
	program mpi.Program, policy task.Policy, rtprio int, noHelpers bool, appDone *bool) {

	chrt.Spawn(kernel.Attr{Name: "mpiexec", Policy: policy, RTPrio: rtprio},
		func(mp *kernel.Proc) {
			mp.Compute(2*sim.Millisecond, func() {
				// Launch helpers (CFS regardless of the app class)
				// and the ranks. A dedicated CNK node has no helper
				// processes.
				if !noHelpers {
					noise.LauncherNoise(k, mp.T, 3, k.RNG(104))
				}
				world.Launch(mp, program)
				// stdio poll loop until the ranks are done.
				poll := k.RNG(105)
				var cycle func()
				cycle = func() {
					if *appDone {
						mp.WaitChildren(func() {
							mp.Compute(sim.Millisecond, func() { mp.Exit() })
						})
						return
					}
					mp.Sleep(poll.Jitter(3*sim.Second, 0.2), func() {
						mp.Compute(300*sim.Microsecond, cycle)
					})
				}
				cycle()
			})
		})
}

// RunMany performs reps independent runs with derived seeds, fanned out
// over opt.Workers goroutines (0 = GOMAXPROCS). It is shorthand for
// RunManyOpt(opt, reps, opt.Workers).
func RunMany(opt Options, reps int) []Result {
	return RunManyOpt(opt, reps, opt.Workers)
}

// RunManyOpt performs reps independent runs with derived seeds over a
// bounded worker pool. workers <= 0 selects GOMAXPROCS; workers == 1 runs
// strictly sequentially on the calling goroutine.
//
// Determinism contract: every rep builds its own kernel.Kernel and
// sim.Engine from a seed that is a pure function of (opt.Seed, rep index),
// shares no mutable state with its siblings, and writes its Result into the
// slot picked by its index — so the returned slice is bitwise identical to
// a sequential run regardless of the worker count (enforced by
// TestRunManyWorkerCountInvariance and `go test -race`).
//
// A non-nil opt.Tracer forces workers to 1: a tracer is a single timeline
// and interleaving runs into it would be meaningless.
func RunManyOpt(opt Options, reps, workers int) []Result {
	if opt.Tracer != nil {
		workers = 1
	}
	out := make([]Result, reps)
	pool.ForN(reps, workers, func(i int) {
		o := opt
		o.Seed = opt.Seed + uint64(i)*0x9e37
		out[i] = Run(o)
	})
	return out
}
