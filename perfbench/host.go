package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostContext describes the machine a run measured on. Absolute figures
// from hosts with different calib_ns are not comparable as they stand, and
// a parallel speed-up is only possible where effective_parallelism allows.
type hostContext struct {
	NumCPU int `json:"num_cpu"`
	// GOMAXPROCS is the setting the workload is measured under.
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// EffectiveParallelism is how many copies of a spin loop the host
	// runs in the time it runs one, with NumCPU copies started at once.
	EffectiveParallelism float64 `json:"effective_parallelism"`
	// CalibNS is the median time of a fixed single-thread integer loop.
	CalibNS float64 `json:"calib_ns"`
}

// spinIters sizes the calibration loop to a few milliseconds.
const spinIters = 4 << 20

var spinSink uint64

// spin runs the fixed calibration loop: a xorshift chain the compiler cannot
// fold away.
func spin() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func timeSpin() time.Duration {
	t0 := time.Now()
	spinSink += spin()
	return time.Since(t0)
}

func measureHost() hostContext {
	h := hostContext{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: measureProcs,
		GoVersion:  runtime.Version(),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(h.NumCPU))
	single := make([]float64, 5)
	for i := range single {
		single[i] = float64(timeSpin())
	}
	h.CalibNS = median(single)

	n := h.NumCPU
	par := make([]float64, 3)
	for i := range par {
		var wg sync.WaitGroup
		sums := make([]uint64, n)
		t0 := time.Now()
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sums[g] = spin()
			}(g)
		}
		wg.Wait()
		par[i] = float64(time.Since(t0))
		for _, s := range sums {
			spinSink += s
		}
	}
	h.EffectiveParallelism = float64(n) * h.CalibNS / median(par)
	return h
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// measureProcs is the GOMAXPROCS every workload runs under. With one thread
// executing Go code, the process's CPU time over an interval is the time
// the interval would take on a host with nothing else running.
const measureProcs = 1

// processCPU is the CPU time all threads of the process have used, garbage
// collection and system calls included. It is the clock of the node and
// cluster workloads, whose work never waits off the CPU: time the host
// gives to other tenants does not count, which keeps figures steady on a
// shared machine.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// wallStart anchors wallClock.
var wallStart = time.Now()

// wallClock is the monotonic wall time since the process started. It is
// the clock of the simqd workload, whose jobs also wait off the CPU.
func wallClock() time.Duration { return time.Since(wallStart) }
