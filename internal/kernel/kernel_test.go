package kernel

import (
	"math"
	"strings"
	"testing"

	"hplsim/internal/cache"
	"hplsim/internal/sched"
	"hplsim/internal/sim"
	"hplsim/internal/task"
	"hplsim/internal/topo"
)

// newExact builds a kernel with zero switch/tick cost and unit SMT factors,
// so compute times equal work exactly.
func newExact(tp topo.Topology, seed uint64) *Kernel {
	cfg := Config{
		Topo:       tp,
		HZ:         250,
		SwitchCost: 1, // 1ns: cannot be zero (zero means "default")
		TickCost:   1,
		SMTFactors: []float64{1, 1},
		Seed:       seed,
	}
	return New(cfg)
}

func uni() topo.Topology { return topo.Topology{Chips: 1, CoresPerChip: 1, ThreadsPerCore: 1} }
func dual() topo.Topology {
	return topo.Topology{Chips: 1, CoresPerChip: 2, ThreadsPerCore: 1}
}

func TestSingleTaskComputesAndExits(t *testing.T) {
	k := newExact(uni(), 1)
	var done sim.Time
	k.Spawn(nil, Attr{Name: "worker"}, func(p *Proc) {
		p.Compute(100*sim.Millisecond, func() {
			done = p.Now()
			p.Exit()
		})
	})
	k.Run(sim.Time(sim.Second))
	// 1ns switch cost + ~25 ticks x 1ns: allow a microsecond of slack.
	want := sim.Time(100 * sim.Millisecond)
	if done < want || done > want.Add(sim.Microsecond) {
		t.Fatalf("completion at %v, want ~%v", done, want)
	}
}

func TestDefaultOverheadsSlowCompletion(t *testing.T) {
	// With the default 4us switch cost and 3us tick cost at HZ=250, a
	// 100ms compute takes 100ms + 4us + ~25*3us.
	k := New(Config{Topo: uni(), Seed: 1})
	var done sim.Time
	k.Spawn(nil, Attr{Name: "worker"}, func(p *Proc) {
		p.Compute(100*sim.Millisecond, func() { done = p.Now(); p.Exit() })
	})
	k.Run(sim.Time(sim.Second))
	lo := sim.Time(100 * sim.Millisecond).Add(70 * sim.Microsecond)
	hi := sim.Time(100 * sim.Millisecond).Add(120 * sim.Microsecond)
	if done < lo || done > hi {
		t.Fatalf("completion at %v, want in [%v, %v]", done, lo, hi)
	}
}

func TestSMTContention(t *testing.T) {
	// Two tasks pinned to the two SMT threads of one core at factor 0.64
	// each take work/0.64 wall time.
	tp := topo.Topology{Chips: 1, CoresPerChip: 1, ThreadsPerCore: 2}
	k := New(Config{
		Topo: tp, SwitchCost: 1, TickCost: 1,
		SMTFactors: []float64{1, 0.64}, Seed: 2,
	})
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(nil, Attr{
			Name:     "w",
			Affinity: topo.MaskOf(i),
		}, func(p *Proc) {
			p.Compute(64*sim.Millisecond, func() { done[i] = p.Now(); p.Exit() })
		})
	}
	k.Run(sim.Time(sim.Second))
	want := sim.Time(100 * sim.Millisecond) // 64ms / 0.64
	for i, d := range done {
		if d < want.Add(-sim.Millisecond) || d > want.Add(sim.Millisecond) {
			t.Fatalf("task %d done at %v, want ~%v", i, d, want)
		}
	}
}

func TestSMTSpeedupAfterSiblingExit(t *testing.T) {
	// Task B shares a core with A; when A exits, B speeds up to 1.0.
	tp := topo.Topology{Chips: 1, CoresPerChip: 1, ThreadsPerCore: 2}
	k := New(Config{Topo: tp, SwitchCost: 1, TickCost: 1,
		SMTFactors: []float64{1, 0.5}, Seed: 3})
	var doneA, doneB sim.Time
	k.Spawn(nil, Attr{Name: "a", Affinity: topo.MaskOf(0)}, func(p *Proc) {
		p.Compute(10*sim.Millisecond, func() { doneA = p.Now(); p.Exit() })
	})
	k.Spawn(nil, Attr{Name: "b", Affinity: topo.MaskOf(1)}, func(p *Proc) {
		p.Compute(30*sim.Millisecond, func() { doneB = p.Now(); p.Exit() })
	})
	k.Run(sim.Time(sim.Second))
	// A: 10ms work at 0.5 => 20ms. B: 10ms of its work done by then
	// (at 0.5), remaining 20ms at full speed => done at 40ms.
	if doneA < sim.Time(19*sim.Millisecond) || doneA > sim.Time(21*sim.Millisecond) {
		t.Fatalf("A done at %v, want ~20ms", doneA)
	}
	if doneB < sim.Time(39*sim.Millisecond) || doneB > sim.Time(41*sim.Millisecond) {
		t.Fatalf("B done at %v, want ~40ms", doneB)
	}
}

func TestCacheColdStartPenalty(t *testing.T) {
	// A fully sensitive task loses ~WarmTau versus an insensitive one.
	model := cache.DefaultModel()
	run := func(sens float64) sim.Time {
		k := New(Config{Topo: uni(), SwitchCost: 1, TickCost: 1,
			Cache: model, Seed: 4})
		var done sim.Time
		k.Spawn(nil, Attr{Name: "w", Sensitivity: sens}, func(p *Proc) {
			p.Compute(50*sim.Millisecond, func() { done = p.Now(); p.Exit() })
		})
		k.Run(sim.Time(sim.Second))
		return done
	}
	cold := run(1.0)
	base := run(0.0)
	lost := cold.Sub(base)
	if lost < model.WarmTau*9/10 || lost > model.WarmTau*11/10 {
		t.Fatalf("cold-start loss = %v, want ~%v", lost, model.WarmTau)
	}
}

func TestCFSDaemonPreemptsAndDelays(t *testing.T) {
	// A CFS worker is preempted by a waking daemon (sleeper credit) and
	// delayed by roughly the daemon's service time.
	k := newExact(uni(), 5)
	var done sim.Time
	worker := k.Spawn(nil, Attr{Name: "worker"}, func(p *Proc) {
		p.Compute(100*sim.Millisecond, func() { done = p.Now(); p.Exit() })
	})
	_ = worker
	// The daemon sleeps 50ms, then computes 10ms, then exits.
	k.Spawn(nil, Attr{Name: "daemon"}, func(p *Proc) {
		p.Sleep(50*sim.Millisecond, func() {
			p.Compute(10*sim.Millisecond, func() { p.Exit() })
		})
	})
	k.Run(sim.Time(sim.Second))
	want := sim.Time(110 * sim.Millisecond)
	if done < want.Add(-2*sim.Millisecond) || done > want.Add(2*sim.Millisecond) {
		t.Fatalf("worker done at %v, want ~%v (daemon stole 10ms)", done, want)
	}
	if k.Perf.InvoluntarySwitches == 0 {
		t.Fatal("daemon wakeup did not preempt the worker")
	}
}

func TestHPCShieldsFromCFSDaemon(t *testing.T) {
	// The same scenario with the worker in the HPC class: the daemon
	// must wait until the worker exits (class priority), so the worker
	// finishes on time.
	k := newExact(uni(), 6)
	var done sim.Time
	var daemonRan sim.Time
	k.Spawn(nil, Attr{Name: "rank", Policy: task.HPC}, func(p *Proc) {
		p.Compute(100*sim.Millisecond, func() { done = p.Now(); p.Exit() })
	})
	k.Spawn(nil, Attr{Name: "daemon"}, func(p *Proc) {
		p.Sleep(50*sim.Millisecond, func() {
			p.Compute(10*sim.Millisecond, func() { daemonRan = p.Now(); p.Exit() })
		})
	})
	k.Run(sim.Time(sim.Second))
	want := sim.Time(100 * sim.Millisecond)
	if done < want || done > want.Add(sim.Millisecond) {
		t.Fatalf("HPC rank done at %v, want ~%v (no preemption)", done, want)
	}
	if daemonRan < done {
		t.Fatalf("daemon ran at %v, before the HPC rank finished at %v", daemonRan, done)
	}
}

func TestRTPreemptsHPC(t *testing.T) {
	// The class chain is RT > HPC: a waking RT task interrupts an HPC rank.
	k := newExact(uni(), 7)
	var done sim.Time
	k.Spawn(nil, Attr{Name: "rank", Policy: task.HPC}, func(p *Proc) {
		p.Compute(100*sim.Millisecond, func() { done = p.Now(); p.Exit() })
	})
	k.Spawn(nil, Attr{Name: "migrationd", Policy: task.FIFO, RTPrio: 99}, func(p *Proc) {
		p.Sleep(50*sim.Millisecond, func() {
			p.Compute(5*sim.Millisecond, func() { p.Exit() })
		})
	})
	k.Run(sim.Time(sim.Second))
	want := sim.Time(105 * sim.Millisecond)
	if done < want.Add(-sim.Millisecond) || done > want.Add(sim.Millisecond) {
		t.Fatalf("rank done at %v, want ~%v (RT stole 5ms)", done, want)
	}
}

func TestHPCRoundRobin(t *testing.T) {
	// Two HPC tasks on one CPU alternate in 100ms slices; both make
	// progress (neither starves) and total time is the sum of work.
	k := newExact(uni(), 8)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(nil, Attr{Name: "r", Policy: task.HPC}, func(p *Proc) {
			p.Compute(150*sim.Millisecond, func() { done[i] = p.Now(); p.Exit() })
		})
	}
	k.Run(sim.Time(sim.Second))
	total := sim.Time(300 * sim.Millisecond)
	last := done[0]
	if done[1] > last {
		last = done[1]
	}
	if last < total || last > total.Add(2*sim.Millisecond) {
		t.Fatalf("last HPC task done at %v, want ~%v", last, total)
	}
	// With 100ms slices and 150ms of work each, the first to finish does
	// so at 100+100+50 = 250ms, not 150 (round-robin interleaves).
	first := done[0]
	if done[1] < first {
		first = done[1]
	}
	if first < sim.Time(249*sim.Millisecond) {
		t.Fatalf("first HPC task done at %v: round-robin did not interleave", first)
	}
}

func TestRRTimesliceRotation(t *testing.T) {
	// Two SCHED_RR tasks at equal priority share the CPU in quanta.
	k := newExact(uni(), 9)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(nil, Attr{Name: "rt", Policy: task.RR, RTPrio: 50}, func(p *Proc) {
			p.Compute(150*sim.Millisecond, func() { done[i] = p.Now(); p.Exit() })
		})
	}
	k.Run(sim.Time(sim.Second))
	first := done[0]
	if done[1] < first {
		first = done[1]
	}
	if first < sim.Time(240*sim.Millisecond) {
		t.Fatalf("first RR task done at %v: no rotation happened", first)
	}
}

func TestFIFONoRotation(t *testing.T) {
	// Two SCHED_FIFO tasks: the first runs to completion.
	k := newExact(uni(), 10)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(nil, Attr{Name: "rt", Policy: task.FIFO, RTPrio: 50}, func(p *Proc) {
			p.Compute(150*sim.Millisecond, func() { done[i] = p.Now(); p.Exit() })
		})
	}
	k.Run(sim.Time(sim.Second))
	first := done[0]
	if done[1] < first {
		first = done[1]
	}
	if first > sim.Time(151*sim.Millisecond) {
		t.Fatalf("first FIFO task done at %v, want ~150ms (no rotation)", first)
	}
}

func TestForkSpreadsAcrossCPUs(t *testing.T) {
	// CFS fork placement spreads two workers over the two cores.
	k := newExact(dual(), 11)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(nil, Attr{Name: "w"}, func(p *Proc) {
			p.Compute(100*sim.Millisecond, func() { done[i] = p.Now(); p.Exit() })
		})
	}
	k.Run(sim.Time(sim.Second))
	for i, d := range done {
		if d > sim.Time(101*sim.Millisecond) {
			t.Fatalf("task %d done at %v: tasks were not spread", i, d)
		}
	}
}

func TestPushToIdleCPU(t *testing.T) {
	// Two workers forced onto CPU 0; once affinity widens, periodic
	// balance pushes the queued one to idle CPU 1.
	k := newExact(dual(), 12)
	var done [2]sim.Time
	tasks := make([]*task.Task, 2)
	for i := 0; i < 2; i++ {
		i := i
		tasks[i] = k.Spawn(nil, Attr{Name: "w", Affinity: topo.MaskOf(0)}, func(p *Proc) {
			p.Compute(100*sim.Millisecond, func() { done[i] = p.Now(); p.Exit() })
		})
	}
	// Widen affinity shortly after start.
	k.Eng.After(5*sim.Millisecond, func() {
		k.SetAffinity(tasks[0], topo.MaskOf(0, 1))
		k.SetAffinity(tasks[1], topo.MaskOf(0, 1))
	})
	k.Run(sim.Time(sim.Second))
	for i, d := range done {
		// Serialised they'd finish at 200ms+; spread, both by ~105-140ms.
		if d == 0 || d > sim.Time(160*sim.Millisecond) {
			t.Fatalf("task %d done at %v: push to idle CPU did not happen", i, d)
		}
	}
	if k.Perf.BalanceMoves == 0 {
		t.Fatal("no balance move recorded")
	}
}

func TestMigrationColdsCache(t *testing.T) {
	// A sensitive task migrated across cores repeats its cold start.
	tp := dual()
	model := cache.DefaultModel()
	k := New(Config{Topo: tp, SwitchCost: 1, TickCost: 1, Cache: model, Seed: 13})
	var done sim.Time
	w := k.Spawn(nil, Attr{Name: "w", Sensitivity: 1, Affinity: topo.MaskOf(0)}, func(p *Proc) {
		p.Compute(60*sim.Millisecond, func() { done = p.Now(); p.Exit() })
	})
	k.Eng.After(30*sim.Millisecond, func() {
		k.SetAffinity(w, topo.MaskOf(1)) // force cross-core migration
	})
	k.Run(sim.Time(sim.Second))
	// Two cold starts: ~2*WarmTau total loss instead of one.
	base := sim.Time(60 * sim.Millisecond)
	lost := done.Sub(base)
	if lost < model.WarmTau*17/10 {
		t.Fatalf("migration lost only %v, want ~2x WarmTau (%v)", lost, 2*model.WarmTau)
	}
	if w.Counters.Migrations == 0 {
		t.Fatal("migration not counted")
	}
}

func TestSleepWake(t *testing.T) {
	k := newExact(uni(), 14)
	var woke sim.Time
	k.Spawn(nil, Attr{Name: "sleeper"}, func(p *Proc) {
		p.Compute(sim.Millisecond, func() {
			p.Sleep(40*sim.Millisecond, func() {
				woke = p.Now()
				p.Exit()
			})
		})
	})
	k.Run(sim.Time(sim.Second))
	want := sim.Time(41 * sim.Millisecond)
	if woke < want || woke > want.Add(sim.Millisecond) {
		t.Fatalf("woke at %v, want ~%v", woke, want)
	}
}

func TestSpinAndResume(t *testing.T) {
	k := newExact(uni(), 15)
	var spun *Proc
	var done sim.Time
	k.Spawn(nil, Attr{Name: "spinner"}, func(p *Proc) {
		p.Compute(sim.Millisecond, func() {
			spun = p
			p.Spin()
		})
	})
	k.Eng.After(20*sim.Millisecond, func() {
		spun.Resume(10*sim.Millisecond, func() { done = spun.Now(); spun.Exit() })
	})
	k.Run(sim.Time(sim.Second))
	want := sim.Time(30 * sim.Millisecond)
	if done < want || done > want.Add(sim.Millisecond) {
		t.Fatalf("done at %v, want ~%v", done, want)
	}
	// The spinner consumed CPU while spinning.
	spinner := k.tasks[1]
	if spinner.SumExec < 29*sim.Millisecond {
		t.Fatalf("spinner SumExec = %v, want ~30ms (spin burns CPU)", spinner.SumExec)
	}
}

func TestWaitChildren(t *testing.T) {
	k := newExact(dual(), 16)
	var parentDone sim.Time
	k.Spawn(nil, Attr{Name: "mpiexec"}, func(p *Proc) {
		p.Compute(sim.Millisecond, func() {
			for i := 0; i < 2; i++ {
				d := sim.Duration(i+1) * 20 * sim.Millisecond
				p.Spawn(Attr{Name: "child"}, func(c *Proc) {
					c.Compute(d, func() { c.Exit() })
				})
			}
			p.WaitChildren(func() {
				parentDone = p.Now()
				p.Exit()
			})
		})
	})
	k.Run(sim.Time(sim.Second))
	// Slowest child: 40ms of work, started after 1ms, possibly sharing a
	// CPU with the parent briefly.
	if parentDone < sim.Time(41*sim.Millisecond) || parentDone > sim.Time(80*sim.Millisecond) {
		t.Fatalf("parent done at %v, want shortly after slowest child (~41ms)", parentDone)
	}
}

func TestContextSwitchCounting(t *testing.T) {
	k := newExact(uni(), 17)
	k.Spawn(nil, Attr{Name: "a"}, func(p *Proc) {
		p.Compute(10*sim.Millisecond, func() { p.Exit() })
	})
	k.Run(sim.Time(sim.Second))
	// Exactly: idle->a (1), a->idle (2).
	if k.Perf.ContextSwitches != 2 {
		t.Fatalf("context switches = %d, want 2", k.Perf.ContextSwitches)
	}
	if k.Perf.VoluntarySwitches != 1 {
		t.Fatalf("voluntary = %d, want 1 (exit)", k.Perf.VoluntarySwitches)
	}
}

func TestSetSchedulerMovesClass(t *testing.T) {
	// A CFS task promoted to HPC mid-run protects itself from a daemon.
	k := newExact(uni(), 18)
	var done sim.Time
	w := k.Spawn(nil, Attr{Name: "app"}, func(p *Proc) {
		p.Compute(100*sim.Millisecond, func() { done = p.Now(); p.Exit() })
	})
	k.Spawn(nil, Attr{Name: "daemon"}, func(p *Proc) {
		p.Sleep(50*sim.Millisecond, func() {
			p.Compute(10*sim.Millisecond, func() { p.Exit() })
		})
	})
	k.Eng.After(sim.Millisecond, func() { k.SetScheduler(w, task.HPC, 0) })
	k.Run(sim.Time(sim.Second))
	want := sim.Time(100 * sim.Millisecond)
	if done > want.Add(2*sim.Millisecond) {
		t.Fatalf("promoted task done at %v, want ~%v", done, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		k := New(Config{Topo: topo.POWER6(), Seed: 42})
		var last sim.Time
		for i := 0; i < 10; i++ {
			k.Spawn(nil, Attr{Name: "w", Sensitivity: 0.5}, func(p *Proc) {
				var loop func(n int)
				loop = func(n int) {
					if n == 0 {
						last = p.Now()
						p.Exit()
						return
					}
					p.Compute(7*sim.Millisecond, func() {
						p.Sleep(3*sim.Millisecond, func() { loop(n - 1) })
					})
				}
				loop(20)
			})
		}
		k.Run(sim.Time(5 * sim.Second))
		return last, k.Perf.ContextSwitches, k.Perf.Migrations
	}
	t1, c1, m1 := run()
	t2, c2, m2 := run()
	if t1 != t2 || c1 != c2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%v,%d,%d) vs (%v,%d,%d)", t1, c1, m1, t2, c2, m2)
	}
}

func TestNiceAffectsShare(t *testing.T) {
	// A nice +19 task shares a CPU with a nice 0 task: the nice 0 task
	// gets the overwhelming share and finishes almost unimpeded.
	k := newExact(uni(), 19)
	var doneFast sim.Time
	k.Spawn(nil, Attr{Name: "fast", Nice: 0}, func(p *Proc) {
		p.Compute(100*sim.Millisecond, func() { doneFast = p.Now(); p.Exit() })
	})
	k.Spawn(nil, Attr{Name: "slow", Nice: 19}, func(p *Proc) {
		p.Compute(100*sim.Millisecond, func() { p.Exit() })
	})
	k.Run(sim.Time(sim.Second))
	// weight 1024 vs 15: fast gets ~98.5%.
	if doneFast > sim.Time(110*sim.Millisecond) {
		t.Fatalf("nice-0 task done at %v, want ~102ms", doneFast)
	}
}

func TestCFSFairnessEqualWeight(t *testing.T) {
	// Two equal CFS hogs finish within one slice of each other.
	k := newExact(uni(), 20)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(nil, Attr{Name: "h"}, func(p *Proc) {
			p.Compute(100*sim.Millisecond, func() { done[i] = p.Now(); p.Exit() })
		})
	}
	k.Run(sim.Time(sim.Second))
	gap := math.Abs(float64(done[0] - done[1]))
	if gap > float64(30*sim.Millisecond) {
		t.Fatalf("unfair: finish gap %v", sim.Duration(gap))
	}
	total := done[0]
	if done[1] > total {
		total = done[1]
	}
	if total < sim.Time(195*sim.Millisecond) || total > sim.Time(215*sim.Millisecond) {
		t.Fatalf("total %v, want ~200ms", total)
	}
}

func TestBalancePolicyNoneKeepsQueued(t *testing.T) {
	// With balancing off, a queued task stays behind the running one
	// even though another CPU is idle.
	k := New(Config{Topo: dual(), SwitchCost: 1, TickCost: 1,
		Balance: sched.BalanceNone, Seed: 21})
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(nil, Attr{Name: "w", Affinity: topo.MaskOf(0)}, func(p *Proc) {
			p.Compute(50*sim.Millisecond, func() { done[i] = p.Now(); p.Exit() })
		})
	}
	// Affinity stays {0}; but even widening it must not move anyone.
	tasks := []*task.Task{k.tasks[2], k.tasks[3]}
	if tasks[0].Name != "w" {
		// tasks[0..1] are swappers; adjust indices defensively.
		tasks = nil
		for _, tt := range k.tasks {
			if tt.Name == "w" {
				tasks = append(tasks, tt)
			}
		}
	}
	k.Eng.After(5*sim.Millisecond, func() {
		for _, tt := range tasks {
			k.SetAffinity(tt, topo.MaskOf(0, 1))
		}
	})
	k.Run(sim.Time(sim.Second))
	if k.Perf.BalanceMoves != 0 {
		t.Fatalf("balance moves = %d with BalanceNone", k.Perf.BalanceMoves)
	}
}

func TestHPLPolicySuppressesBalancingWhileHPCAlive(t *testing.T) {
	// Under BalanceHPL, two CFS tasks crammed on CPU 0 stay there while
	// an HPC task lives, and spread after it exits.
	k := New(Config{Topo: dual(), SwitchCost: 1, TickCost: 1,
		Balance: sched.BalanceHPL, Seed: 22})
	var hpcExit sim.Time
	k.Spawn(nil, Attr{Name: "rank", Policy: task.HPC, Affinity: topo.MaskOf(1)}, func(p *Proc) {
		p.Compute(80*sim.Millisecond, func() { hpcExit = p.Now(); p.Exit() })
	})
	moves := make([]sim.Time, 0)
	var ws []*task.Task
	for i := 0; i < 2; i++ {
		w := k.Spawn(nil, Attr{Name: "d", Affinity: topo.MaskOf(0)}, func(p *Proc) {
			p.Compute(200*sim.Millisecond, func() { p.Exit() })
		})
		ws = append(ws, w)
	}
	k.Eng.After(5*sim.Millisecond, func() {
		for _, w := range ws {
			k.SetAffinity(w, topo.MaskOf(0, 1))
		}
	})
	prev := uint64(0)
	k.Eng.After(sim.Millisecond, func() {})
	// Poll for balance moves over time via a recurring event.
	var poll func()
	poll = func() {
		if k.Perf.BalanceMoves > prev {
			prev = k.Perf.BalanceMoves
			moves = append(moves, k.Now())
		}
		k.Eng.After(sim.Millisecond, poll)
	}
	k.Eng.After(sim.Millisecond, poll)
	k.Run(sim.Time(400 * sim.Millisecond))
	if len(moves) == 0 {
		t.Fatal("no balance move even after the HPC task exited")
	}
	if moves[0] < hpcExit {
		t.Fatalf("balance move at %v while HPC task alive (exit at %v)", moves[0], hpcExit)
	}
}

func TestHPCForkPlacementTopologyAware(t *testing.T) {
	// On the POWER6 topology, four HPC ranks land one per core; eight
	// ranks land one per hardware thread.
	for _, n := range []int{4, 8} {
		k := New(Config{Topo: topo.POWER6(), Balance: sched.BalanceHPL, Seed: 23})
		parent := k.Spawn(nil, Attr{Name: "mpiexec", Policy: task.HPC}, func(p *Proc) {
			p.Compute(sim.Millisecond, func() {
				for i := 0; i < n; i++ {
					p.Spawn(Attr{Name: "rank", Policy: task.HPC}, func(c *Proc) {
						c.Spin() // hold the CPU so placement is observable
					})
				}
				p.WaitChildren(func() { p.Exit() })
			})
		})
		_ = parent
		k.Run(sim.Time(200 * sim.Millisecond))
		perCore := make(map[int]int)
		perCPU := make(map[int]int)
		for _, tt := range k.Tasks() {
			if tt.Name == "rank" {
				perCore[k.Topo.CoreOf(tt.CPU)]++
				perCPU[tt.CPU]++
			}
		}
		if n == 4 {
			for core, cnt := range perCore {
				if cnt != 1 {
					t.Fatalf("n=4: core %d has %d ranks, want 1", core, cnt)
				}
			}
			if len(perCore) != 4 {
				t.Fatalf("n=4: ranks on %d cores, want 4", len(perCore))
			}
		} else {
			for cpu, cnt := range perCPU {
				if cnt != 1 {
					t.Fatalf("n=8: cpu %d has %d ranks, want 1", cpu, cnt)
				}
			}
			if len(perCPU) != 8 {
				t.Fatalf("n=8: ranks on %d CPUs, want 8", len(perCPU))
			}
		}
	}
}

// TestNewRejectsUnusableTick: a negative HZ, or a tick period no longer
// than the tick cost, would arm lanes in the past, divide by a zero
// period, or spend every period in the interrupt. New refuses them up
// front with a message naming the problem.
func TestNewRejectsUnusableTick(t *testing.T) {
	for _, tc := range []struct {
		hz   int
		frag string
	}{
		{-1, "negative"},
		{2000000000, "tick cost"}, // period rounds to 0
		{333333, "tick cost"},     // period 3us == default TickCost
	} {
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !strings.Contains(err.Error(), tc.frag) {
					t.Errorf("HZ %d: New panicked with %v, want an error mentioning %q", tc.hz, r, tc.frag)
				}
			}()
			New(Config{Topo: dual(), HZ: tc.hz})
		}()
	}
	// Zero overheads leave every positive period usable; a 10us period
	// clears the default 3us cost.
	New(Config{Topo: dual(), HZ: 1000000000, NoOverheads: true})
	New(Config{Topo: dual(), HZ: 100000})
}
