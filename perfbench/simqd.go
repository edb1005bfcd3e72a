package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hplsim/internal/experiments"
	"hplsim/internal/nas"
	"hplsim/internal/simq"
	"hplsim/internal/simqd"
	"hplsim/internal/topo"
)

// simqdWindow is how many jobs the submitter keeps in flight; it stays under
// the dispatcher's default per-client quota, so no submit is refused.
const simqdWindow = 8

// simqdSampleEvery picks the jobs whose artifacts are re-run directly.
const simqdSampleEvery = 61

// simqdBlock is how many completed jobs make one round of a phase.
// latency_p99_ms is the median over rounds of each round's p99: the host's
// speed swings for a second or two at a time, and a run meets anywhere from
// none to several such swings, which a p99 over the whole run follows.
const simqdBlock = 200

// simqdJobsPerSecond sizes a measured phase: --seconds times this many jobs,
// rounded up to whole rounds. It is about the rate the service reached on
// the host the benchmark was built on. A phase ends at a job count, not at
// a deadline, so it does the same work, and leaves the dispatcher holding
// the same number of jobs, however fast the service runs.
const simqdJobsPerSecond = 300

// simqdWL drives the queue service end to end in one process: a dispatcher
// over a scratch directory served on loopback HTTP, one submitter
// connection running a closed loop of simqdWindow jobs, and one worker
// connection running Claim, RunJobPayload and Complete. The worker tells the
// submitter in-process when a job is done, so nothing polls.
type simqdWL struct {
	seed    uint64
	root    string
	digestN int // the first digestN jobs of a phase form the digest
	setups  int
	// seq0 is the journal sequence number the last measured phase began
	// after; samples are its artifacts picked for a direct re-run.
	seq0    uint64
	samples map[int][]byte

	dir   string
	srv   *simqd.Server
	hs    *http.Server
	serve chan error
	base  string
}

var simqdBenches = []string{"is", "cg", "mg", "ft"}

func newSimqd(o options) (*simqdWL, error) {
	root, err := filepath.Abs(filepath.Join(o.out, fmt.Sprintf("simqd-scratch-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	w := &simqdWL{seed: o.seed, root: root, digestN: 64}
	if o.size == "tiny" {
		w.digestN = 8
	}
	return w, nil
}

// payload is job i's spec: a small fast-forwarded run on the 2x2x2 node.
// Payloads leave out the maintenance storms. A storm payload costs several
// times a normal one and holds many more tasks, so the few a run meets set
// its latency tail and its peak memory; this workload measures the service
// path instead. node-table and node-wide run with storms.
func payload(seed uint64, i int) string {
	return experiments.Payload{
		Bench: simqdBenches[i%len(simqdBenches)], Class: "A",
		Scheme: nodeSchemes[(i/len(simqdBenches))%2].String(), Seed: mix(seed, uint64(i)),
		Topo: "2x2x2", FastForward: true, NoStorms: true,
	}.Canonical()
}

// setup opens a fresh dispatcher directory, serves it, and warms the loop
// with a fixed batch of jobs.
func (w *simqdWL) setup(sp *speedometer, tr *tracer) error {
	if err := w.shutdown(); err != nil {
		return err
	}
	root := tr.begin("setup", 0, -1)
	defer tr.end(root)
	w.setups++
	w.dir = filepath.Join(w.root, fmt.Sprintf("setup%d", w.setups))
	s := tr.begin("simqd.Open", root, -1)
	srv, err := simqd.Open(w.dir, simq.Config{}, nil)
	tr.end(s)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return fmt.Errorf("listening on loopback: %w", err)
	}
	w.srv, w.hs, w.serve = srv, &http.Server{Handler: srv.Handler()}, make(chan error, 1)
	w.base = "http://" + ln.Addr().String()
	go func() { w.serve <- w.hs.Serve(ln) }()
	_, err = w.loop(sp, 2*simqdWindow, 0, tr)
	return err
}

// shutdown stops the HTTP server and closes the dispatcher, if running.
func (w *simqdWL) shutdown() error {
	if w.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	w.hs, w.srv = nil, nil
	return err
}

func (w *simqdWL) close() error {
	err := w.shutdown()
	if rerr := os.RemoveAll(w.root); err == nil {
		err = rerr
	}
	return err
}

// now reads the wall clock: a service job's cost includes the time it waits
// off the CPU, for a reply, a write or a sync, and that is what a client of
// the service sees.
func (w *simqdWL) now() time.Duration { return wallClock() }

// measure runs d's worth of jobs at simqdJobsPerSecond, and at least one
// round and the digest jobs.
func (w *simqdWL) measure(sp *speedometer, d time.Duration, tr *tracer) (*phase, error) {
	w.seq0, w.samples = w.srv.Seq(), map[int][]byte{}
	size0, err := w.journalSize()
	if err != nil {
		return nil, err
	}
	rounds := max(1, int(math.Ceil(d.Seconds()*simqdJobsPerSecond/simqdBlock)))
	ph, err := w.loop(sp, max(rounds*simqdBlock, w.digestN), w.seed, tr)
	if err != nil {
		return nil, err
	}
	size1, err := w.journalSize()
	if err != nil {
		return nil, err
	}
	ph.layer["simq.journal_bytes_per_job"] = float64(size1-size0) / ph.jobs
	st := w.srv.Stats()
	ph.layer["simqd.rejected"] = float64(st.Rejected)
	ph.layer["simqd.duplicates"] = float64(st.Duplicates)
	ph.layer["simqd.fp_mismatches"] = float64(st.FPMismatches)
	ph.layer["simqd.stale_reports"] = float64(st.StaleReports)
	if st.FPMismatches != 0 || st.StaleReports != 0 {
		ph.problem("dispatcher counted %d fingerprint mismatches and %d stale reports", st.FPMismatches, st.StaleReports)
	}
	if st.Failed != 0 {
		ph.problem("dispatcher holds %d failed jobs", st.Failed)
	}
	return ph, nil
}

func (w *simqdWL) journalSize() (int64, error) {
	fi, err := os.Stat(filepath.Join(w.dir, "journal.jsonl"))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// done is the worker's in-process report of one finished job. replied is
// the wall clock when the Complete reply arrived.
type done struct {
	job      int
	artifact []byte
	replied  time.Duration
	err      error
}

// loop runs the closed submit loop until n jobs are submitted, then lets
// the window drain. Job i's payload comes from (seed, i). Every time it
// reads is on the phase's clock: the wall clock less speed-probe time.
func (w *simqdWL) loop(sp *speedometer, n int, seed uint64, tr *tracer) (*phase, error) {
	ph := newPhase(sp)
	ph.perRoundP99 = true
	sub, wrk := simqd.NewClient(w.base), simqd.NewClient(w.base)
	tokens := make(chan struct{}, simqdWindow) // one per submitted job not yet claimed
	dones := make(chan done, simqdWindow)
	stop := make(chan struct{})
	worker := make(chan struct{})
	go func() {
		defer close(worker)
		for {
			select {
			case <-stop:
				return
			case <-tokens:
			}
			var m done
			s := tr.begin("Client.Claim", 0, -1)
			lease, ok, err := wrk.Claim("bench-worker")
			tr.end(s)
			if err == nil && !ok {
				err = errors.New("claim found no runnable job")
			}
			if err != nil {
				m.err = err
				dones <- m
				continue
			}
			tr.tag(s, lease.Job)
			m.job = lease.Job
			s = tr.begin("simqd.RunJobPayload", 0, lease.Job)
			m.artifact, err = simqd.RunJobPayload(lease.Payload)
			tr.end(s)
			if err == nil {
				s = tr.begin("Client.Complete", 0, lease.Job)
				err = wrk.Complete("bench-worker", lease.Job, lease.Attempt, m.artifact)
				tr.end(s)
			}
			m.replied = ph.now()
			m.err = err
			dones <- m
		}
	}()
	defer func() {
		close(stop)
		<-worker
	}()

	type pending struct {
		index int
		start time.Duration
		root  int
	}
	inflight := map[int]pending{}
	next := 0
	fps := make([]uint64, w.digestN)
	nfps := 0
	spans0 := tr.count()
	start := ph.now()
	block, blockSim, blockJobs := start, 0.0, 0.0
	more := func() bool { return next < n }
	submit := func() error {
		p := pending{index: next, start: ph.now()}
		p.root = tr.begin("simqd.job", 0, -1)
		s := tr.begin("Client.Submit", p.root, -1)
		job, err := sub.Submit("bench", fmt.Sprintf("job-%d", next), 0, payload(seed, next))
		tr.end(s)
		next++
		ph.attempted++
		if err != nil {
			ph.failed++
			return fmt.Errorf("submit: %w", err)
		}
		tr.tag(p.root, job)
		tr.tag(s, job)
		inflight[job] = p
		tokens <- struct{}{}
		return nil
	}
	for len(inflight) < simqdWindow && more() {
		if err := submit(); err != nil {
			return nil, err
		}
	}
	for len(inflight) > 0 {
		m := <-dones
		if m.err != nil {
			ph.failed++
			return nil, fmt.Errorf("worker: %w", m.err)
		}
		p := inflight[m.job]
		delete(inflight, m.job)
		ph.lat(p.start, m.replied, 1)

		s := tr.begin("Client.Result", p.root, m.job)
		got, err := sub.Result(m.job)
		tr.end(s)
		tr.end(p.root)
		if err != nil {
			ph.failed++
			return nil, fmt.Errorf("result of job %d: %w", m.job, err)
		}
		if !bytes.Equal(got, m.artifact) {
			ph.problem("job %d: fetched result differs from the artifact the worker completed", m.job)
		}
		var sum experiments.PayloadSummary
		line, _, _ := bytes.Cut(got, []byte("\n"))
		if err := json.Unmarshal(line, &sum); err != nil {
			ph.problem("job %d: artifact summary line: %v", m.job, err)
		} else if !sum.Completed {
			ph.failed++ // censored at its horizon: a failed job, not a wrong output
		} else {
			ph.jobs++
			ph.simSec += sum.VirtualSec
			ph.layer["schedstat.trace_events_per_job"] += float64(sum.TraceEvents)
			blockJobs++
			blockSim += sum.VirtualSec
		}
		if blockJobs == simqdBlock {
			ph.endRound(block, blockSim, blockJobs)
			block, blockSim, blockJobs = ph.now(), 0, 0
		}
		if p.index < w.digestN {
			fps[p.index] = simq.Fingerprint(got)
			nfps++
		}
		if w.samples != nil && p.index%simqdSampleEvery == 0 {
			w.samples[p.index] = got
		}
		if more() {
			if err := submit(); err != nil {
				return nil, err
			}
		}
	}
	if len(ph.rounds) == 0 {
		ph.endRound(block, blockSim, blockJobs)
	}

	if nfps < w.digestN && n >= w.digestN {
		ph.problem("only %d of the %d digest jobs completed", nfps, w.digestN)
	}
	for _, fp := range fps {
		ph.digest = fold(ph.digest, fp)
	}
	ph.layer["schedstat.trace_events_per_job"] /= ph.jobs
	if tr != nil {
		spanLayers(ph, tr.spansFrom(spans0), ph.now()-start)
	}
	return ph, nil
}

// spanLayers derives the simqd per-call figures from a traced phase's
// spans.
func spanLayers(ph *phase, spans []span, wall time.Duration) {
	durs := map[string][]float64{}
	submitted, claimed := map[int]float64{}, map[int]float64{}
	var run float64
	for _, s := range spans {
		d := (s.End - s.Start) / 1e3
		durs[s.Name] = append(durs[s.Name], d)
		switch s.Name {
		case "Client.Submit":
			submitted[s.Job] = s.End
		case "Client.Claim":
			claimed[s.Job] = s.End
		case "simqd.RunJobPayload":
			run += d
		}
	}
	var wait []float64
	for job, c := range claimed {
		if sub, ok := submitted[job]; ok {
			wait = append(wait, (c-sub)/1e3)
		}
	}
	ph.layer["simqd.submit_ms_p50"] = median(durs["Client.Submit"])
	ph.layer["simqd.claim_ms_p50"] = median(durs["Client.Claim"])
	ph.layer["simqd.complete_ms_p50"] = median(durs["Client.Complete"])
	ph.layer["simqd.result_ms_p50"] = median(durs["Client.Result"])
	ph.layer["simqd.run_ms_p50"] = median(durs["simqd.RunJobPayload"])
	ph.layer["simqd.queue_wait_ms_p50"] = median(wait)
	ph.layer["simqd.edge_frac"] = 1 - run/ms(wall)
}

// verify re-runs every sampled job's payload directly and requires the
// bytes the service returned.
func (w *simqdWL) verify(ph *phase) error {
	for i, got := range w.samples {
		want, err := simqd.RunJobPayload(payload(w.seed, i))
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			ph.problem("job %d: service artifact differs from a direct RunJobPayload of its payload", i)
		}
	}
	return nil
}

// probe reads the journal back, times a restart on the finished directory,
// and re-runs sampled payloads through experiments.Run for the node layers'
// counters.
func (w *simqdWL) probe(ph *phase, tr *tracer) error {
	if err := w.shutdown(); err != nil {
		return err
	}
	f, err := os.Open(filepath.Join(w.dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	recs, err := simq.ReadJournal(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading journal back: %w", err)
	}
	var n float64
	for _, r := range recs {
		if r.Seq > w.seq0 {
			n++
		}
	}
	ph.layer["simq.records_per_job"] = n / ph.jobs

	reopen := make([]float64, 3)
	for i := range reopen {
		s := tr.begin("simqd.Open", 0, -1)
		t0 := wallClock()
		srv, err := simqd.Open(w.dir, simq.Config{}, nil)
		reopen[i] = ms(wallClock() - t0)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("reopening the dispatcher: %w", err)
		}
		if err := srv.Close(); err != nil {
			return err
		}
	}
	ph.layer["simq.reopen_ms"] = median(reopen)

	var rs runStats
	for i := 0; i < 32; i++ {
		p, err := experiments.ParsePayload([]byte(payload(w.seed, i)))
		if err != nil {
			return err
		}
		scheme, _ := experiments.ParseScheme(p.Scheme)
		machine, err := topo.Parse(p.Topo)
		if err != nil {
			return err
		}
		s := tr.begin("experiments.Run", 0, -1)
		t0 := processCPU()
		res := experiments.Run(experiments.Options{Profile: nas.MustGet(p.Bench, p.Class[0]),
			Scheme: scheme, Seed: p.Seed, Topo: machine, FastForward: p.FastForward, NoStorms: p.NoStorms})
		rs.add(res, processCPU()-t0)
		tr.end(s)
	}
	rs.report(ph.layer)
	ph.layer["kernel.boot_ms"] = bootMS([]topo.Topology{topo.POWER6()}, w.seed, tr)
	return nil
}
