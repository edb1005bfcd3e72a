package simq

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"hplsim/internal/binheap"
	"hplsim/internal/invariant"
)

// Submit admission errors, mapped to 429/503-style replies at the HTTP
// edge. Rejections are pure functions of (state, config) — deterministic —
// and are never journaled, because they change nothing.
var (
	// ErrDraining rejects submits while the queue is draining.
	ErrDraining = errors.New("simq: queue is draining")
	// ErrQuota rejects submits from a client at its in-flight cap.
	ErrQuota = errors.New("simq: client in-flight quota exceeded")
)

// State is the dispatcher's replayable queue state: a pure function of the
// journal record sequence. The service edge decides a transition, journals
// the record, then calls Apply; recovery is ReadJournal + Apply in a loop.
// Apply re-validates every record against the state it meets, so replaying
// a journal against diverged logic (or a corrupted journal against sound
// logic) fails loudly instead of silently rebuilding something else.
type State struct {
	cfg  Config
	seq  uint64 // last applied record seq
	last int64  // last applied stamp (stamps are non-decreasing)

	jobs     map[int]*jobInfo
	ids      []int // sorted job IDs, maintained incrementally
	nextID   int
	ready    *Queue
	cooling  binheap.Heap[coolEntry]
	leases   binheap.Heap[leaseEntry]
	inflight map[string]int // client -> pending+leased jobs
	draining bool

	// counts per JobState, maintained incrementally for O(1) stats.
	counts [5]int
}

type jobInfo struct {
	id        int
	client    string
	name      string
	prio      int
	payload   string
	submit    int64
	state     JobState
	attempt   int // claims so far; a pending job's next claim is attempt+1
	worker    string
	deadline  int64
	notBefore int64
	fp        string
	bytes     int
	errMsg    string
	done      int64
}

// NewState builds an empty queue state under cfg (zero fields defaulted).
func NewState(cfg Config) *State {
	return &State{
		cfg:      cfg.WithDefaults(),
		jobs:     make(map[int]*jobInfo),
		ready:    NewQueue(cfg.AgingRate),
		cooling:  binheap.New(coolAhead),
		leases:   binheap.New(leaseAhead),
		inflight: make(map[string]int),
	}
}

// Config reports the effective (defaulted) configuration.
func (s *State) Config() Config { return s.cfg }

// Seq reports the last applied record sequence number.
func (s *State) Seq() uint64 { return s.seq }

// NextSeq is the sequence number the next record must carry.
func (s *State) NextSeq() uint64 { return s.seq + 1 }

// LastStamp reports the stamp of the last applied record.
func (s *State) LastStamp() int64 { return s.last }

// NextID is the ID the next submitted job will receive.
func (s *State) NextID() int { return s.nextID }

// Draining reports whether the queue has stopped accepting submissions.
func (s *State) Draining() bool { return s.draining }

// Quiesced reports drain completion: draining with no pending or leased
// jobs left.
func (s *State) Quiesced() bool {
	return s.draining && s.counts[Pending] == 0 && s.counts[Leased] == 0
}

// InFlight reports client's pending+leased job count.
func (s *State) InFlight(client string) int { return s.inflight[client] }

// Count reports how many jobs are in the given state.
func (s *State) Count(st JobState) int { return s.counts[st] }

// SubmitErr reports why a submit from client would be rejected, or nil.
// Admission is checked before journaling: rejected submits never reach
// the journal.
func (s *State) SubmitErr(client string) error {
	if s.draining {
		return ErrDraining
	}
	if s.inflight[client] >= s.cfg.QuotaPerClient {
		return ErrQuota
	}
	return nil
}

// liveReady reports whether a ready-heap entry still names the next claim
// of a pending job.
func (s *State) liveReady(job, attempt int) bool {
	j := s.jobs[job]
	return j != nil && j.state == Pending && j.attempt+1 == attempt
}

// sweep moves cooled retry entries whose not-before stamp has passed into
// the ready queue. The ready/cooling split is an implementation detail —
// Snapshot never exposes it — so sweeping at whatever times the edge
// happens to observe cannot diverge replay from the original run.
func (s *State) sweep(now int64) {
	for {
		top, ok := s.cooling.Peek()
		if !ok || top.nb > now {
			return
		}
		s.cooling.Pop()
		j := s.jobs[top.job]
		if j == nil || j.state != Pending || j.attempt+1 != top.attempt {
			continue // stale: job moved on while cooling
		}
		s.ready.Push(top.job, top.attempt, j.prio, j.submit)
	}
}

// PeekClaim reports the job the dispatcher must lease next at time now,
// without transitioning it: the highest aged priority among pending jobs
// whose backoff (if any) has cooled. The claim record the edge then
// journals names this job, and Apply verifies the choice on replay.
func (s *State) PeekClaim(now int64) (job, attempt int, ok bool) {
	s.sweep(now)
	job, attempt, ok = s.ready.Peek(s.liveReady)
	if invariant.Enabled {
		s.checkState()
	}
	return job, attempt, ok
}

// NextExpiry reports the earliest leased job whose deadline has passed at
// time now. The edge journals one expire record per call until none
// remain, before any other transition at now.
func (s *State) NextExpiry(now int64) (job, attempt int, ok bool) {
	for {
		top, ok := s.leases.Peek()
		if !ok || top.deadline > now {
			if invariant.Enabled {
				s.checkState()
			}
			return 0, 0, false
		}
		j := s.jobs[top.job]
		if j == nil || j.state != Leased || j.attempt != top.attempt {
			s.leases.Pop() // stale: lease already resolved
			continue
		}
		if invariant.Enabled {
			s.checkState()
		}
		return top.job, top.attempt, true
	}
}

// ExpiryDisposition computes the nb field for an expire/fail record of the
// given attempt: the cooled requeue stamp, or 0 when the attempt budget is
// exhausted. Pure, so the edge stamps records and replay stays config-free.
func (s *State) ExpiryDisposition(now int64, attempt int) int64 {
	if attempt >= s.cfg.MaxAttempts {
		return 0
	}
	return now + int64(s.cfg.Backoff(attempt))
}

// Apply transitions the state by one journal record. It is the only
// mutation entry point; every path revalidates the record against the
// current state and returns an error on any mismatch (corrupt journal,
// diverged decision logic, or a record applied out of order).
func (s *State) Apply(rec Record) error {
	if rec.Seq != s.seq+1 {
		return fmt.Errorf("simq: record seq %d applied after seq %d", rec.Seq, s.seq)
	}
	if rec.T < s.last {
		return fmt.Errorf("simq: record %d stamp %d precedes stamp %d", rec.Seq, rec.T, s.last)
	}
	var err error
	switch rec.Op {
	case OpSubmit:
		err = s.applySubmit(rec)
	case OpClaim:
		err = s.applyClaim(rec)
	case OpComplete:
		err = s.applyComplete(rec)
	case OpFail:
		err = s.applyResolve(rec, true)
	case OpExpire:
		err = s.applyResolve(rec, false)
	case OpCancel:
		err = s.applyCancel(rec)
	case OpDrain:
		s.draining = true
	default:
		err = fmt.Errorf("simq: unknown journal op %q", rec.Op)
	}
	if err != nil {
		return err
	}
	s.seq = rec.Seq
	s.last = rec.T
	if invariant.Enabled {
		s.checkState()
	}
	return nil
}

func (s *State) applySubmit(rec Record) error {
	if err := s.SubmitErr(rec.Client); err != nil {
		return fmt.Errorf("simq: journaled submit of job %d was inadmissible: %w", rec.Job, err)
	}
	if rec.Job != s.nextID {
		return fmt.Errorf("simq: submit record names job %d, next ID is %d", rec.Job, s.nextID)
	}
	if rec.Client == "" {
		return fmt.Errorf("simq: submit record for job %d has no client", rec.Job)
	}
	j := &jobInfo{
		id:      rec.Job,
		client:  rec.Client,
		name:    rec.Name,
		prio:    rec.Prio,
		payload: rec.Payload,
		submit:  rec.T,
		state:   Pending,
	}
	s.jobs[rec.Job] = j
	s.ids = append(s.ids, rec.Job)
	s.nextID = rec.Job + 1
	s.inflight[rec.Client]++
	s.counts[Pending]++
	s.ready.Push(rec.Job, 1, rec.Prio, rec.T)
	return nil
}

func (s *State) applyClaim(rec Record) error {
	s.sweep(rec.T)
	job, attempt, ok := s.ready.Pop(s.liveReady)
	if !ok {
		return fmt.Errorf("simq: claim record %d names job %d but the queue is empty at t=%d", rec.Seq, rec.Job, rec.T)
	}
	if job != rec.Job || attempt != rec.Attempt {
		return fmt.Errorf("simq: claim divergence at record %d: journal says job %d attempt %d, queue head is job %d attempt %d",
			rec.Seq, rec.Job, rec.Attempt, job, attempt)
	}
	if rec.Deadline < rec.T {
		return fmt.Errorf("simq: claim record %d has deadline %d before stamp %d", rec.Seq, rec.Deadline, rec.T)
	}
	j := s.jobs[job]
	j.state = Leased
	j.attempt = attempt
	j.worker = rec.Worker
	j.deadline = rec.Deadline
	j.notBefore = 0
	s.counts[Pending]--
	s.counts[Leased]++
	s.leases.Push(leaseEntry{deadline: rec.Deadline, job: job, attempt: attempt})
	return nil
}

// leaseOf fetches the job a lease-resolving record refers to, verifying
// the record matches the live lease.
func (s *State) leaseOf(rec Record, needWorker bool) (*jobInfo, error) {
	j := s.jobs[rec.Job]
	if j == nil {
		return nil, fmt.Errorf("simq: record %d resolves unknown job %d", rec.Seq, rec.Job)
	}
	if j.state != Leased {
		return nil, fmt.Errorf("simq: record %d resolves job %d in state %v", rec.Seq, rec.Job, j.state)
	}
	if j.attempt != rec.Attempt {
		return nil, fmt.Errorf("simq: record %d resolves job %d attempt %d, lease is attempt %d",
			rec.Seq, rec.Job, rec.Attempt, j.attempt)
	}
	if needWorker && j.worker != rec.Worker {
		return nil, fmt.Errorf("simq: record %d resolves job %d via worker %q, lease is held by %q",
			rec.Seq, rec.Job, rec.Worker, j.worker)
	}
	return j, nil
}

func (s *State) applyComplete(rec Record) error {
	j, err := s.leaseOf(rec, true)
	if err != nil {
		return err
	}
	if rec.FP == "" {
		return fmt.Errorf("simq: complete record %d for job %d has no fingerprint", rec.Seq, rec.Job)
	}
	j.state = Done
	j.fp = rec.FP
	j.bytes = rec.Bytes
	j.done = rec.T
	s.counts[Leased]--
	s.counts[Done]++
	s.inflight[j.client]--
	return nil
}

// applyResolve handles fail and expire: the lease dies; nb > 0 cools the
// job for a retry, nb == 0 fails it terminally.
func (s *State) applyResolve(rec Record, workerReported bool) error {
	j, err := s.leaseOf(rec, workerReported)
	if err != nil {
		return err
	}
	if !workerReported && rec.T < j.deadline {
		return fmt.Errorf("simq: expire record %d at t=%d precedes job %d's deadline %d",
			rec.Seq, rec.T, rec.Job, j.deadline)
	}
	s.counts[Leased]--
	if rec.NB > 0 {
		j.state = Pending
		j.notBefore = rec.NB
		j.worker = ""
		j.deadline = 0
		s.counts[Pending]++
		s.cooling.Push(coolEntry{nb: rec.NB, job: j.id, attempt: j.attempt + 1, submit: j.submit})
	} else {
		j.state = Failed
		j.errMsg = rec.Err
		if !workerReported && j.errMsg == "" {
			j.errMsg = fmt.Sprintf("lease expired after %d attempts", j.attempt)
		}
		s.counts[Failed]++
		s.inflight[j.client]--
	}
	return nil
}

func (s *State) applyCancel(rec Record) error {
	j := s.jobs[rec.Job]
	if j == nil {
		return fmt.Errorf("simq: cancel record %d names unknown job %d", rec.Seq, rec.Job)
	}
	if j.state != Pending && j.state != Leased {
		return fmt.Errorf("simq: cancel record %d names job %d in state %v", rec.Seq, rec.Job, j.state)
	}
	s.counts[j.state]--
	j.state = Canceled
	s.counts[Canceled]++
	s.inflight[j.client]--
	return nil
}

// JobView is the externally visible form of one job, shared by the status
// API and Snapshot. Field order is fixed: Snapshot bytes are canonical.
type JobView struct {
	ID        int    `json:"id"`
	Client    string `json:"client"`
	Name      string `json:"name"`
	Prio      int    `json:"prio"`
	State     string `json:"state"`
	Attempt   int    `json:"attempt"`
	Worker    string `json:"worker,omitempty"`
	SubmitT   int64  `json:"submit_t"`
	Deadline  int64  `json:"deadline,omitempty"`
	NotBefore int64  `json:"not_before,omitempty"`
	FP        string `json:"fp,omitempty"`
	Bytes     int    `json:"bytes,omitempty"`
	Err       string `json:"err,omitempty"`
	DoneT     int64  `json:"done_t,omitempty"`
}

func (j *jobInfo) view() JobView {
	return JobView{
		ID: j.id, Client: j.client, Name: j.name, Prio: j.prio,
		State: j.state.String(), Attempt: j.attempt, Worker: j.worker,
		SubmitT: j.submit, Deadline: j.deadline, NotBefore: j.notBefore,
		FP: j.fp, Bytes: j.bytes, Err: j.errMsg, DoneT: j.done,
	}
}

// Job reports the view of one job.
func (s *State) Job(id int) (JobView, bool) {
	j := s.jobs[id]
	if j == nil {
		return JobView{}, false
	}
	return j.view(), true
}

// Payload reports the opaque payload of one job.
func (s *State) Payload(id int) (string, bool) {
	j := s.jobs[id]
	if j == nil {
		return "", false
	}
	return j.payload, true
}

// Jobs reports every job in ID (submission) order.
func (s *State) Jobs() []JobView {
	out := make([]JobView, 0, len(s.ids))
	for _, id := range s.ids {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// snapshot is the canonical serialized state shape.
type snapshot struct {
	Seq      uint64    `json:"seq"`
	LastT    int64     `json:"last_t"`
	NextID   int       `json:"next_id"`
	Draining bool      `json:"draining"`
	Jobs     []JobView `json:"jobs"`
}

// Snapshot renders the complete queue state as canonical JSON: jobs in ID
// order, fixed field sets, no internal heap layout (the ready/cooling
// split is derivable and deliberately excluded). Two States built from the
// same record sequence produce byte-identical snapshots — the
// crash-recovery oracle.
func (s *State) Snapshot() []byte {
	snap := snapshot{
		Seq:      s.seq,
		LastT:    s.last,
		NextID:   s.nextID,
		Draining: s.draining,
		Jobs:     s.Jobs(),
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		panic("simq: snapshot marshal cannot fail: " + err.Error())
	}
	return append(b, '\n')
}

// Replay builds a State by applying every record in order, failing on the
// first invalid one. This is dispatcher crash recovery in one call.
func Replay(cfg Config, recs []Record) (*State, error) {
	s := NewState(cfg)
	for _, rec := range recs {
		if err := s.Apply(rec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Stats is the aggregate the /api/stats endpoint serves.
type Stats struct {
	Seq      uint64 `json:"seq"`
	Pending  int    `json:"pending"`
	Leased   int    `json:"leased"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Canceled int    `json:"canceled"`
	Draining bool   `json:"draining"`
	Quiesced bool   `json:"quiesced"`
}

// Stats summarises the queue.
func (s *State) Stats() Stats {
	return Stats{
		Seq:      s.seq,
		Pending:  s.counts[Pending],
		Leased:   s.counts[Leased],
		Done:     s.counts[Done],
		Failed:   s.counts[Failed],
		Canceled: s.counts[Canceled],
		Draining: s.draining,
		Quiesced: s.Quiesced(),
	}
}

// sortedClients returns the inflight map's keys in deterministic order,
// for the invariants audit and tests.
func (s *State) sortedClients() []string {
	keys := make([]string, 0, len(s.inflight))
	for k := range s.inflight { //schedlint:ignore maprange — keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
