package main

import (
	"sort"
	"sync"
	"time"
)

// The speedometer. The shared hosts this benchmark runs on change speed all
// the time: on the 2-vCPU Xeon host it was built on, a fixed 1 ms loop
// timed every 16 ms read anywhere from 0.88 to 1.27 ms, the same on the
// wall clock and on the CPU clock, and readings 160 ms apart were no
// longer correlated. Over minutes the drift reaches 1.7x: back-to-back runs
// of the same node-table inputs read 166 and then 95 jobs/s. So a run
// probes the host's speed every probeEvery while it measures, and scales
// every timing by the probes that fell in it. Figures then read as they
// would on a host where a probe pass takes probeNominal. The probe is
// benchmark code that no change to hplsim touches, so a change to the
// program moves the scaled figures exactly as it moves the unscaled ones.

// probeNominal is the pass time the scaled figures refer to: about its
// median on the host the benchmark was built on.
const probeNominal = 70 * time.Microsecond

// probeEvery is the time between probes. A probe, four passes, costs
// about 1.5% of it.
const probeEvery = 20 * time.Millisecond

// probeOps sizes one probe pass to about 70 µs on the build host.
const probeOps = 1200

// probeReps is how many passes one probe times; its reading is their mean.
// A pass can take anywhere from half to the whole of its median time on the
// build host, as the core it shares with other tenants is busy or not, and
// a mean over passes follows the speed the workload meets, where the
// fastest pass would not.
const probeReps = 3

// probeEvent is an entry of the probe's event heap.
type probeEvent struct{ when, seq uint64 }

func (a probeEvent) before(b probeEvent) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// The probe's working set: an event heap and a map, about 160 KiB, which
// stays in a core's private caches on current server parts. probeMu guards
// the heap.
var (
	probeMu   sync.Mutex
	probeHeap [4096]probeEvent
	probeMap  = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, 4096)
		for i := uint64(0); i < 4096; i++ {
			m[i*0x9e3779b97f4a7c15] = i
		}
		return m
	}()
)

// probePass is one pass of the probe: what a discrete-event simulator does
// most, pushing to and popping from a binary event heap, with a map lookup
// per operation. A xorshift chain picks the operations, so the branches
// cannot be learnt, and every pass does the same work. Of the probes tried
// on fixed node-table rounds, this one followed the rounds' speed best: it
// cut the rounds' spread from 10% to 5%, where a random walk over a table
// cut it to 8%.
func probePass() uint64 {
	x := uint64(88172645463325252)
	var n int
	var now, seq, acc uint64
	for i := 0; i < probeOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += probeMap[(x&4095)*0x9e3779b97f4a7c15]
		if n < 64 || (n < len(probeHeap) && x&1 == 0) {
			seq++
			e := probeEvent{now + x%1000, seq}
			j := n
			n++
			for j > 0 {
				p := (j - 1) / 2
				if !e.before(probeHeap[p]) {
					break
				}
				probeHeap[j] = probeHeap[p]
				j = p
			}
			probeHeap[j] = e
			continue
		}
		now = probeHeap[0].when
		acc += now
		n--
		e := probeHeap[n]
		j := 0
		for {
			c := 2*j + 1
			if c >= n {
				break
			}
			if c+1 < n && probeHeap[c+1].before(probeHeap[c]) {
				c++
			}
			if !probeHeap[c].before(e) {
				break
			}
			probeHeap[j] = probeHeap[c]
			j = c
		}
		probeHeap[j] = e
	}
	return acc
}

// speedometer probes the host's speed on a workload's clock from its own
// goroutine and keeps the readings. With GOMAXPROCS=1 a probe runs while
// the workload does not, so the time probes take is known exactly, and
// now() leaves it out.
type speedometer struct {
	clock func() time.Duration

	mu    sync.Mutex
	spent time.Duration   // clock time all probes took
	at    []time.Duration // now() at each probe
	took  []float64       // each probe's reading: its mean pass time, in seconds
	sink  uint64

	stop chan struct{}
	done chan struct{}
}

// startSpeedometer starts probing on clock. Call halt when done.
func startSpeedometer(clock func() time.Duration) *speedometer {
	s := &speedometer{clock: clock, stop: make(chan struct{}), done: make(chan struct{})}
	s.probe()
	go func() {
		defer close(s.done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.probe()
			}
		}
	}()
	return s
}

// halt stops the probing goroutine and waits for it, then takes one last
// reading.
func (s *speedometer) halt() {
	close(s.stop)
	<-s.done
	s.probe()
}

// probe takes one reading. A first, untimed pass brings the probe's working
// set back into cache, so the reading does not depend on how much of it
// the workload evicted.
func (s *speedometer) probe() {
	probeMu.Lock()
	defer probeMu.Unlock()
	t0 := s.clock()
	sink := probePass()
	t1 := s.clock()
	for range probeReps {
		sink += probePass()
	}
	t2 := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink += sink
	s.spent += max(t2-t0, 0)
	if t2 <= t1 {
		return // the clock did not advance: no reading
	}
	s.at = append(s.at, t2-s.spent)
	s.took = append(s.took, (t2-t1).Seconds()/probeReps)
}

// now is the clock less the time probes took.
func (s *speedometer) now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock() - s.spent
}

// scaled returns the interval [t0, t1] of now() in seconds at nominal
// speed. Each probe stands for the stretch of time closer to it than to
// any other probe; a stretch at a speed where the probe took p counts
// probeNominal/p times its length.
func (s *speedometer) scaled(t0, t1 time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.at)
	if n == 0 {
		return (t1 - t0).Seconds()
	}
	// The first probe whose stretch ends after t0.
	i := sort.Search(n, func(i int) bool { return i == n-1 || (s.at[i]+s.at[i+1])/2 > t0 })
	var sum float64
	for lo := t0; i < n && lo < t1; i++ {
		hi := t1
		if i < n-1 {
			hi = min(hi, (s.at[i]+s.at[i+1])/2)
		}
		sum += (hi - lo).Seconds() * probeNominal.Seconds() / s.took[i]
		lo = hi
	}
	return sum
}

// readings returns the probe readings in seconds.
func (s *speedometer) readings() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.took...)
}
