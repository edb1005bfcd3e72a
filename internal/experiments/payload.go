package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"hplsim/internal/kernel"
	"hplsim/internal/nas"
	"hplsim/internal/schedstat"
	"hplsim/internal/topo"
)

// Payload is the JSON job spec the simulation-queue service executes: one
// measured run, fully determined by its fields. The artifact a worker
// produces for a payload is a pure function of the payload bytes — any
// worker, any attempt, any host — which is what lets the dispatcher verify
// retried and duplicated deliveries by fingerprint alone.
//
// Exactly one of Bench/Class (a NAS profile) or Custom must be set.
type Payload struct {
	// Bench/Class name a built-in NAS profile (e.g. "ft"/"A").
	Bench string `json:"bench,omitempty"`
	Class string `json:"class,omitempty"`
	// Custom embeds a user-defined workload instead of a NAS profile.
	Custom *nas.CustomSpec `json:"custom,omitempty"`
	// Scheme is the scheduler configuration, by name ("std", "hpl", ...).
	Scheme string `json:"scheme"`
	// Seed keys the run's deterministic randomness.
	Seed uint64 `json:"seed"`
	// Topo overrides the machine ("2x2x2" chips x cores x threads;
	// empty = the paper's POWER6).
	Topo string `json:"topo,omitempty"`
	// HZ overrides the tick frequency (0 = default).
	HZ int `json:"hz,omitempty"`
	// FastForward enables virtual-time fast-forward (trace-equivalent).
	FastForward bool `json:"fastforward,omitempty"`
	// NoDaemons / NoStorms suppress the background load.
	NoDaemons bool `json:"nodaemons,omitempty"`
	NoStorms  bool `json:"nostorms,omitempty"`
	// Trace appends the full schedstat event trace to the artifact after
	// the summary line. Off, the artifact still carries the trace's
	// fingerprint, so equivalence checks stay byte-strength either way.
	Trace bool `json:"trace,omitempty"`
}

// maxPayloadCPUs caps a payload's topology. A payload arrives from the
// network and a worker allocates per-CPU state for it, so the cap bounds a
// worker's memory. It is 4x the widest node the tests and benchmarks run
// (4x128x2 = 1024 logical CPUs).
const maxPayloadCPUs = 4096

// ParseScheme resolves a scheme name.
func ParseScheme(name string) (Scheme, bool) {
	for _, s := range Schemes() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// ParsePayload decodes and validates one payload from its JSON bytes.
// Unknown fields are rejected: a payload is an artifact-identity input, so
// silently dropping a field would let two different specs collide.
func ParsePayload(b []byte) (Payload, error) {
	var p Payload
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Payload{}, fmt.Errorf("experiments: parsing payload: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Payload{}, err
	}
	return p, nil
}

// Validate reports the first problem with the payload.
func (p Payload) Validate() error {
	if _, err := p.profile(); err != nil {
		return err
	}
	if _, ok := ParseScheme(p.Scheme); !ok {
		names := make([]string, 0, len(Schemes()))
		for _, s := range Schemes() {
			names = append(names, s.String())
		}
		return fmt.Errorf("experiments: payload scheme %q is not one of %s",
			p.Scheme, strings.Join(names, ", "))
	}
	if p.Topo != "" {
		machine, err := topo.Parse(p.Topo)
		if err != nil {
			return fmt.Errorf("experiments: payload topo: %w", err)
		}
		// Each dimension is checked first so the product cannot overflow.
		if machine.Chips > maxPayloadCPUs || machine.CoresPerChip > maxPayloadCPUs ||
			machine.ThreadsPerCore > maxPayloadCPUs || machine.NumCPUs() > maxPayloadCPUs {
			return fmt.Errorf("experiments: payload topo %q exceeds %d logical CPUs", p.Topo, maxPayloadCPUs)
		}
	}
	if err := (kernel.Config{HZ: p.HZ}).Validate(); err != nil {
		return fmt.Errorf("experiments: payload hz: %w", err)
	}
	return nil
}

func (p Payload) profile() (nas.Profile, error) {
	switch {
	case p.Custom != nil && p.Bench != "":
		return nas.Profile{}, fmt.Errorf("experiments: payload sets both bench %q and a custom workload", p.Bench)
	case p.Custom != nil:
		return p.Custom.Profile()
	case p.Bench == "":
		return nas.Profile{}, fmt.Errorf("experiments: payload names no workload (bench or custom)")
	case len(p.Class) != 1:
		return nas.Profile{}, fmt.Errorf("experiments: payload class must be one character, got %q", p.Class)
	default:
		return nas.Get(p.Bench, p.Class[0])
	}
}

// Canonical renders the payload in its canonical compact form: parse it
// back and re-marshal. Two textually different encodings of the same spec
// submit as the same payload string, so their artifacts are comparable.
func (p Payload) Canonical() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic("experiments: payload marshal cannot fail: " + err.Error())
	}
	return string(b)
}

// PayloadSummary is the first line of every artifact: the payload echoed
// back plus the run's headline observables. Field order is fixed by the
// struct; encoding/json emits it deterministically, so the summary line is
// canonical.
type PayloadSummary struct {
	Payload     Payload `json:"payload"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	Completed   bool    `json:"completed"`
	CtxSwitches uint64  `json:"ctx_switches"`
	Migrations  uint64  `json:"migrations"`
	VirtualSec  float64 `json:"virtual_sec"`
	// TraceFP is the FNV-1a fingerprint of the schedstat trace bytes
	// (%016x), recorded whether or not the trace itself is shipped.
	TraceFP string `json:"trace_fp"`
	// TraceEvents counts trace lines behind TraceFP.
	TraceEvents int `json:"trace_events"`
}

// RunPayload executes one payload and renders its artifact: a summary JSON
// line, then (with Trace set) the schedstat event trace in canonical JSONL.
// The artifact is a pure function of the payload — the determinism contract
// the queue service's retry and duplicate-delivery verification rests on.
func RunPayload(p Payload) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prof, err := p.profile()
	if err != nil {
		return nil, err
	}
	scheme, _ := ParseScheme(p.Scheme)
	var machine topo.Topology
	if p.Topo != "" {
		if machine, err = topo.Parse(p.Topo); err != nil {
			return nil, err
		}
	}

	var trace bytes.Buffer
	w := schedstat.NewWriter(&trace)
	res := Run(Options{
		Profile:     prof,
		Scheme:      scheme,
		Seed:        p.Seed,
		Topo:        machine,
		HZ:          p.HZ,
		FastForward: p.FastForward,
		NoDaemons:   p.NoDaemons,
		NoStorms:    p.NoStorms,
		Tracer:      w,
	})
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("experiments: flushing payload trace: %w", err)
	}

	fp := fnv.New64a()
	_, _ = fp.Write(trace.Bytes()) // hash.Hash.Write never returns an error
	summary := PayloadSummary{
		Payload:     p,
		ElapsedSec:  res.ElapsedSec,
		Completed:   res.Completed,
		CtxSwitches: res.Window.ContextSwitches,
		Migrations:  res.Window.Migrations,
		VirtualSec:  res.VirtualSec,
		TraceFP:     fmt.Sprintf("%016x", fp.Sum64()),
		TraceEvents: bytes.Count(trace.Bytes(), []byte("\n")),
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return nil, fmt.Errorf("experiments: marshaling payload summary: %w", err)
	}
	artifact := append(line, '\n')
	if p.Trace {
		artifact = append(artifact, trace.Bytes()...)
	}
	return artifact, nil
}
