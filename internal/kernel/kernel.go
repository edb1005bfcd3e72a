// Package kernel is the simulated operating system: CPUs with context
// switching and timer ticks, the syscall surface (fork, exit, sleep,
// sched_setscheduler, sched_setaffinity, nice), execution of task work with
// cache-warmth and SMT effects, and the glue to the scheduler core.
//
// The kernel is deliberately structured like the system the paper modifies:
// policy lives in the sched packages, mechanism lives here. Experiments
// construct a Kernel per run, boot it, spawn a workload, and read the perf
// counters.
package kernel

import (
	"fmt"

	"hplsim/internal/cache"
	"hplsim/internal/perf"
	"hplsim/internal/sched"
	"hplsim/internal/sched/cfs"
	"hplsim/internal/sched/hpc"
	"hplsim/internal/sched/idleclass"
	"hplsim/internal/sched/rt"
	"hplsim/internal/sim"
	"hplsim/internal/task"
	"hplsim/internal/topo"
)

// Tracer receives scheduling events for timeline reconstruction (Figure 1),
// schedstat accounting, and the schedcheck oracles. All methods are called
// at the instant the event happens.
type Tracer interface {
	// Switch reports a context switch on cpu from prev to next.
	Switch(now sim.Time, cpu int, prev, next *task.Task)
	// Migrate reports that t moved from one CPU to another, and why. The
	// schedcheck migration oracle relies on the kind to tell permitted
	// fork-time placement from forbidden post-placement moves.
	Migrate(now sim.Time, t *task.Task, from, to int, kind MigrateKind)
	// Wake reports that t became runnable on cpu.
	Wake(now sim.Time, t *task.Task, cpu int)
	// Mark reports a workload-defined event (barrier arrival, release).
	Mark(now sim.Time, t *task.Task, label string)
	// Fork reports a freshly created task being enqueued for the first
	// time, after fork placement chose cpu and before the enqueue
	// (mirroring Wake's ordering, so runqueue counts read by the tracer
	// are the tasks ahead of it).
	Fork(now sim.Time, t *task.Task, cpu int)
	// Exit reports the running task leaving the system.
	Exit(now sim.Time, t *task.Task)
}

// MigrateKind distinguishes why a task changed CPUs.
type MigrateKind int

const (
	// MigrateFork: placement at fork time chose a CPU other than the
	// parent's (the one migration the paper's HPL policy permits).
	MigrateFork MigrateKind = iota
	// MigrateWake: a wakeup landed the task on a different CPU.
	MigrateWake
	// MigrateBalance: the load balancer moved a queued task.
	MigrateBalance
)

func (m MigrateKind) String() string {
	switch m {
	case MigrateFork:
		return "fork"
	case MigrateWake:
		return "wake"
	case MigrateBalance:
		return "balance"
	default:
		return fmt.Sprintf("MigrateKind(%d)", int(m))
	}
}

// Config parameterises a simulated node.
type Config struct {
	// Topo is the machine topology; defaults to the paper's POWER6.
	Topo topo.Topology
	// HZ is the timer tick frequency; defaults to 250.
	HZ int
	// SwitchCost is the direct cost of a context switch.
	SwitchCost sim.Duration
	// TickCost is the CPU time stolen by each timer interrupt
	// (the paper's "micro noise").
	TickCost sim.Duration
	// Cache is the cache warmth model.
	Cache cache.Model
	// SMTFactors[i] is the per-thread throughput when i other hardware
	// threads of the core are busy. Defaults to {1.0, 0.64} (POWER6-era
	// SMT2: two busy threads each run at 64% of a lone thread).
	SMTFactors []float64
	// Balance selects the load-balancing policy.
	Balance sched.BalancePolicy
	// HPCNaivePlacement disables the HPC class's topology-aware fork
	// placement (ablation A2).
	HPCNaivePlacement bool
	// AdaptiveTick is the NETTICK-style optimisation the paper pairs
	// with HPL (Section V): when an HPC task runs alone on its CPU the
	// periodic tick is stretched to a 10 Hz housekeeping rate, removing
	// most of the timer micro-noise. Ticks return to full rate as soon
	// as another task queues up.
	AdaptiveTick bool
	// FastForward enables virtual-time fast-forward: timer ticks that
	// provably cannot change a scheduling decision (per the classes'
	// NextDecision bounds and the balancer's deadlines) are not
	// dispatched as they happen; their bookkeeping is replayed, tick by
	// tick with identical arithmetic, immediately before the next event
	// that could observe it. The mode is bitwise trace-equivalent to
	// stepping every tick — same completion times, same counters, same
	// dispatch fingerprint — and exists purely to make replications
	// faster. See DESIGN.md, "Virtual-time fast-forward".
	FastForward bool
	// Power parameterises the energy model; zero value uses defaults.
	Power PowerModel
	// CFS are the CFS tunables; zero value uses the defaults.
	CFS cfs.Tunables
	// Seed drives all stochastic behaviour of the run.
	Seed uint64
	// Tracer, if non-nil, receives scheduling events.
	Tracer Tracer
	// NoOverheads zeroes SwitchCost and TickCost instead of applying their
	// defaults, giving the idealised machine on which the schedcheck
	// metamorphic oracles hold exactly.
	NoOverheads bool
	// Chaos enables scheduler fault injection for the property harness.
	Chaos sched.Chaos
	// Naive reverts every wide-node optimisation to the pre-optimisation
	// linear scans — full-span balancing, all-CPU tick catch-up, O(#lanes)
	// engine timer lookup — while keeping identical scheduling behaviour.
	// It is the reference implementation TestNaiveRunEquivalence checks
	// the optimised scans against.
	Naive bool
}

func (c Config) withDefaults() Config {
	if c.Topo == (topo.Topology{}) {
		c.Topo = topo.POWER6()
	}
	if c.HZ == 0 {
		c.HZ = 250
	}
	if c.SwitchCost == 0 {
		c.SwitchCost = 4 * sim.Microsecond
	}
	if c.TickCost == 0 {
		c.TickCost = 3 * sim.Microsecond
	}
	if c.NoOverheads {
		c.SwitchCost = 0
		c.TickCost = 0
	}
	if c.Cache == (cache.Model{}) {
		c.Cache = cache.DefaultModel()
	}
	if len(c.SMTFactors) == 0 {
		c.SMTFactors = []float64{1.0, 0.64}
	}
	if c.CFS == (cfs.Tunables{}) {
		c.CFS = cfs.DefaultTunables()
	}
	if c.Power.isZero() {
		c.Power = DefaultPowerModel()
	}
	return c
}

// Validate reports the first reason New would refuse the configuration,
// after defaults are applied: a malformed topology, a negative HZ, or a
// tick period no longer than TickCost. An interrupt that costs its whole
// period leaves no time for work, so such a run would never progress.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	if c.HZ < 0 {
		return fmt.Errorf("kernel: HZ must not be negative, got %d", c.HZ)
	}
	if period := sim.Duration(int64(sim.Second) / int64(c.HZ)); period <= c.TickCost {
		return fmt.Errorf("kernel: tick period %v at HZ %d must exceed the tick cost %v", period, c.HZ, c.TickCost)
	}
	return nil
}

// cpuState is the kernel's per-CPU structure.
type cpuState struct {
	id   int
	curr *task.Task
	idle *task.Task
	// spanStart anchors the progress accounting of curr: work accrues
	// from this instant. It may sit slightly in the future right after
	// a context switch (switch cost) or a tick (tick cost).
	spanStart sim.Time
	// completion fires when curr's finite work is done.
	completion sim.EventRef
	// lane is the engine timer lane carrying this CPU's periodic tick.
	// Lane ids equal CPU ids, so the engine's lowest-lane-first tie-break
	// doubles as the cross-CPU tick order at a shared instant.
	lane int
	// tickNext is the next instant on this CPU's tick grid, or 0 while
	// the CPU idles (tickless idle). In fast-forward mode the lane may
	// be armed at a later grid instant: the instants in between are
	// elided and replayed on demand (see catchUp).
	tickNext sim.Time
	// ticks counts timer interrupts accounted to this CPU, real and
	// replayed alike.
	ticks uint64
	// reschedPending guards against scheduling multiple reschedule
	// passes at the same instant.
	reschedPending bool
	// inSteps guards runSteps against reentrancy from continuations.
	inSteps bool
}

// coreState is the per-physical-core structure.
type coreState struct {
	// busy accumulates CPU time executed on this core; the difference
	// between two readings bounds the cache eviction a descheduled task
	// suffered.
	busy sim.Duration
}

// Kernel is a booted simulated node.
type Kernel struct {
	Eng   *sim.Engine
	Cfg   Config
	Topo  topo.Topology
	Sched *sched.Scheduler
	Perf  perf.Counters

	cpus  []*cpuState
	cores []*coreState
	idle  *idleclass.Class

	// ticking is a per-word CPU bitmap of CPUs with a live tick grid
	// (tickNext != 0), maintained by armTick/cancelTick. Fast-forward
	// catch-up walks only these bits, so a fully idle socket costs
	// nothing per event.
	ticking []uint64

	tasks  []*task.Task
	nextID int

	energy *energyState

	// ff mirrors Cfg.FastForward. replaying marks an elided-tick replay
	// in progress; vnow is then the instant being replayed, and now()
	// reports it instead of the engine clock so that every time read on
	// the replay path (throttle periods, accounting spans) sees the
	// value it would have seen had the tick been dispatched live.
	ff        bool
	replaying bool
	vnow      sim.Time

	rng *sim.RNG
}

// New boots a node: idle tasks are installed on every CPU, ticks are armed
// lazily when CPUs become busy, and the scheduler class chain RT > HPC >
// CFS > Idle is constructed.
func New(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Topo.NumCPUs()
	k := &Kernel{
		Eng:     sim.NewEngine(),
		Cfg:     cfg,
		Topo:    cfg.Topo,
		cpus:    make([]*cpuState, n),
		cores:   make([]*coreState, cfg.Topo.NumCores()),
		ticking: make([]uint64, (n+63)/64),
		rng:     sim.NewRNG(cfg.Seed),
	}
	k.Eng.NaiveLanes = cfg.Naive
	k.energy = newEnergyState(cfg.Topo.NumCores(), n)
	k.idle = idleclass.New(n)
	hpcClass := hpc.New(n)
	hpcClass.Naive = cfg.HPCNaivePlacement
	classes := []sched.Class{
		rt.New(n),
		hpcClass,
		cfs.New(n, cfg.CFS),
		k.idle,
	}
	k.ff = cfg.FastForward
	k.Sched = sched.New(sched.Config{
		Topo:      cfg.Topo,
		Classes:   classes,
		Hooks:     (*hooks)(k),
		Policy:    cfg.Balance,
		NaiveScan: cfg.Naive,
		RNG:       k.rng.Split(0xba1a), // load-balancer tie-break stream
		Now:       k.now,
		Timer: func(d sim.Duration, fn func()) {
			if k.replaying {
				// A class arming a timer at an elided tick means the
				// tick made a decision after all: the NextDecision
				// bound was wrong. Fail loudly instead of diverging.
				panic("kernel: timer armed during fast-forward tick replay")
			}
			k.Eng.After(d, fn)
		},
		Chaos: cfg.Chaos,
	})
	for i := range k.cores {
		k.cores[i] = &coreState{}
	}
	for cpu := 0; cpu < n; cpu++ {
		c := &cpuState{id: cpu}
		c.lane = k.Eng.NewLane(func() { k.tickFire(c) })
		swapper := k.newTask(fmt.Sprintf("swapper/%d", cpu), task.Idle)
		swapper.CPU = cpu
		swapper.State = task.Running
		swapper.Affinity = topo.MaskOf(cpu)
		c.idle = swapper
		c.curr = swapper
		k.idle.SetIdleTask(cpu, swapper)
		k.cpus[cpu] = c
		k.Sched.SetCurr(cpu, swapper)
	}
	if k.ff {
		k.Eng.BeforeEvent = k.beforeEvent
	}
	return k
}

// hooks adapts Kernel to sched.Hooks without exporting the methods on
// Kernel itself.
type hooks Kernel

// Resched implements sched.Hooks.
func (h *hooks) Resched(cpu int) { (*Kernel)(h).resched(cpu) }

// TickAdjust implements sched.TickAdjuster: a scheduler event may have
// moved cpu's next tick-driven decision earlier, so re-aim its timer lane.
func (h *hooks) TickAdjust(cpu int) { (*Kernel)(h).tickAdjust(cpu) }

// Migrated implements sched.Hooks.
func (h *hooks) Migrated(t *task.Task, from, to int) {
	k := (*Kernel)(h)
	k.Perf.Migrations++
	k.Perf.BalanceMoves++
	t.Counters.Migrations++
	k.traceMigrate(t, from, to, MigrateBalance)
}

// traceMigrate reports a migration and its kind to the tracer.
func (k *Kernel) traceMigrate(t *task.Task, from, to int, kind MigrateKind) {
	if k.Cfg.Tracer != nil {
		k.Cfg.Tracer.Migrate(k.Eng.Now(), t, from, to, kind)
	}
}

// traceFork reports a fork-time first enqueue to the tracer.
func (k *Kernel) traceFork(t *task.Task, cpu int) {
	if k.Cfg.Tracer != nil {
		k.Cfg.Tracer.Fork(k.now(), t, cpu)
	}
}

// traceExit reports a task exit to the tracer.
func (k *Kernel) traceExit(t *task.Task) {
	if k.Cfg.Tracer != nil {
		k.Cfg.Tracer.Exit(k.now(), t)
	}
}

// Now reports the current virtual time.
func (k *Kernel) Now() sim.Time { return k.now() }

// now reports kernel time: the engine clock, or the instant of the elided
// tick being replayed.
func (k *Kernel) now() sim.Time {
	if k.replaying {
		return k.vnow
	}
	return k.Eng.Now()
}

// TicksOn reports the timer interrupts accounted to cpu (real and
// replayed), for the fast-forward equivalence tests.
func (k *Kernel) TicksOn(cpu int) uint64 { return k.cpus[cpu].ticks }

// RNG returns a derived random stream for workload use. The label keeps
// workload draws independent of kernel-internal draws.
func (k *Kernel) RNG(label uint64) *sim.RNG { return k.rng.Split(label) }

// Tasks returns all tasks ever created, including idle tasks.
func (k *Kernel) Tasks() []*task.Task { return k.tasks }

// CPUOf reports which CPU the task is running or queued on.
func (k *Kernel) CPUOf(t *task.Task) int { return t.CPU }

// CurrOn reports the task currently running on cpu.
func (k *Kernel) CurrOn(cpu int) *task.Task { return k.cpus[cpu].curr }

// IdleOn reports whether cpu is idle.
func (k *Kernel) IdleOn(cpu int) bool {
	c := k.cpus[cpu]
	return c.curr == c.idle
}

// Run drives the simulation until the given virtual time. In fast-forward
// mode, elided ticks up to the horizon are settled before returning, so
// counters and per-task accounting match what a step-every-tick run shows
// at the same instant.
func (k *Kernel) Run(until sim.Time) {
	k.Eng.Run(until)
	if !k.ff {
		k.checkInvariants()
		return
	}
	end := until
	if k.Eng.Stopped() || until == sim.Infinity {
		// Stopped early (or no horizon): settle only to where the engine
		// actually got, exactly as a per-tick run stopped there would be.
		end = k.Eng.Now()
	}
	k.catchUp(end, len(k.cpus))
	k.checkInvariants()
}

// Stop halts the simulation after the current event.
func (k *Kernel) Stop() { k.Eng.Stop() }

func (k *Kernel) newTask(name string, p task.Policy) *task.Task {
	t := &task.Task{
		ID:       k.nextID,
		Name:     name,
		Policy:   p,
		Nice:     0,
		State:    task.New,
		CPU:      0,
		Affinity: k.Topo.AllMask(),
		Cache:    cache.NewState(),
		Spawned:  k.Eng.Now(),
	}
	k.nextID++
	k.tasks = append(k.tasks, t)
	return t
}
