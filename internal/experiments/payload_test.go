package experiments

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"hplsim/internal/nas"
)

// fastPayload is a sub-second custom workload for service-path tests.
func fastPayload() Payload {
	return Payload{
		Custom: &nas.CustomSpec{
			Bench: "svc", Class: "T", Ranks: 4, Iterations: 4,
			TargetSeconds: 0.05, Sensitivity: 0.3,
		},
		Scheme:      "hpl",
		Seed:        7,
		Topo:        "2x2x2",
		FastForward: true,
		NoStorms:    true,
	}
}

func TestParsePayloadRejectsBadSpecs(t *testing.T) {
	bad := []struct {
		name string
		in   string
		frag string
	}{
		{"unknown field", `{"scheme":"std","bench":"ft","class":"A","typo":1}`, "typo"},
		{"no workload", `{"scheme":"std"}`, "no workload"},
		{"both workloads", `{"scheme":"std","bench":"ft","class":"A","custom":{"bench":"x","class":"A","ranks":1,"iterations":1,"target_seconds":1}}`, "both"},
		{"bad scheme", `{"scheme":"warp","bench":"ft","class":"A"}`, "scheme"},
		{"bad class", `{"scheme":"std","bench":"ft","class":"AA"}`, "class"},
		{"unknown profile", `{"scheme":"std","bench":"zz","class":"A"}`, "zz"},
		{"bad topo", `{"scheme":"std","bench":"ft","class":"A","topo":"round"}`, "topo"},
		{"retired shards field", `{"scheme":"std","bench":"ft","class":"A","shards":2}`, "shards"},
		{"oversized topo", `{"scheme":"std","bench":"ft","class":"A","topo":"100000x1000x2"}`, "4096"},
		{"negative hz", `{"scheme":"std","bench":"ep","class":"A","topo":"2x2x2","hz":-1}`, "hz"},
		{"hz period rounds to zero", `{"scheme":"std","bench":"ep","class":"A","topo":"2x2x2","hz":2000000000}`, "hz"},
		{"hz period equals tick cost", `{"scheme":"std","bench":"ep","class":"A","topo":"2x2x2","hz":333333}`, "hz"},
		{"invalid custom", `{"scheme":"std","custom":{"bench":"x","class":"A","ranks":0,"iterations":1,"target_seconds":1}}`, "ranks"},
	}
	for _, tc := range bad {
		if _, err := ParsePayload([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
	// The bounds reject only what they must.
	for _, in := range []string{
		`{"scheme":"std","bench":"ep","class":"A","topo":"2x2x2","hz":1000}`,
		`{"scheme":"std","bench":"ep","class":"A","topo":"8x256x2"}`,
	} {
		if _, err := ParsePayload([]byte(in)); err != nil {
			t.Errorf("%s: rejected: %v", in, err)
		}
	}
}

func TestPayloadCanonicalAbsorbsFormatting(t *testing.T) {
	p := fastPayload()
	// A whitespace-padded, key-reordered encoding of the same spec.
	loose := `{
		"seed": 7, "scheme": "hpl", "topo": "2x2x2",
		"fastforward": true, "nostorms": true,
		"custom": {"bench":"svc","class":"T","ranks":4,"iterations":4,
		           "target_seconds":0.05,"sensitivity":0.3}
	}`
	parsed, err := ParsePayload([]byte(loose))
	if err != nil {
		t.Fatalf("ParsePayload: %v", err)
	}
	if parsed.Canonical() != p.Canonical() {
		t.Fatalf("canonical forms differ:\n %s\n %s", parsed.Canonical(), p.Canonical())
	}
	// Canonical parses back to itself.
	again, err := ParsePayload([]byte(p.Canonical()))
	if err != nil {
		t.Fatalf("re-parse canonical: %v", err)
	}
	if again.Canonical() != p.Canonical() {
		t.Fatal("canonical form is not a fixed point")
	}
}

// TestRunPayloadDeterministic is the contract the queue service rests on:
// the artifact is a pure function of the payload bytes.
func TestRunPayloadDeterministic(t *testing.T) {
	p := fastPayload()
	a, err := RunPayload(p)
	if err != nil {
		t.Fatalf("RunPayload: %v", err)
	}
	b, err := RunPayload(p)
	if err != nil {
		t.Fatalf("RunPayload (second): %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of the same payload produced different artifacts")
	}

	var sum PayloadSummary
	line := a[:bytes.IndexByte(a, '\n')]
	if err := json.Unmarshal(line, &sum); err != nil {
		t.Fatalf("summary line does not parse: %v", err)
	}
	if !sum.Completed || sum.ElapsedSec <= 0 || sum.TraceEvents == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.TraceFP) != 16 {
		t.Fatalf("trace fingerprint %q not fixed-width", sum.TraceFP)
	}

	// A different seed produces a different artifact (the fingerprint is
	// doing real work).
	p2 := p
	p2.Seed = 8
	c, err := RunPayload(p2)
	if err != nil {
		t.Fatalf("RunPayload(seed 8): %v", err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical artifacts")
	}
}

// TestRunPayloadTraceShipping: with Trace set the artifact carries the
// trace whose fingerprint the summary names; without it, only the line.
func TestRunPayloadTraceShipping(t *testing.T) {
	p := fastPayload()
	p.Trace = true
	withTrace, err := RunPayload(p)
	if err != nil {
		t.Fatalf("RunPayload(trace): %v", err)
	}
	p.Trace = false
	bare, err := RunPayload(p)
	if err != nil {
		t.Fatalf("RunPayload(bare): %v", err)
	}
	if n := bytes.IndexByte(bare, '\n'); n != len(bare)-1 {
		t.Fatal("bare artifact has more than the summary line")
	}

	cut := bytes.IndexByte(withTrace, '\n')
	var sum PayloadSummary
	if err := json.Unmarshal(withTrace[:cut], &sum); err != nil {
		t.Fatal(err)
	}
	trace := withTrace[cut+1:]
	if got := len(bytes.Split(bytes.TrimSuffix(trace, []byte("\n")), []byte("\n"))); got != sum.TraceEvents {
		t.Fatalf("shipped trace has %d lines, summary says %d", got, sum.TraceEvents)
	}
	if got := fingerprintHex(trace); got != sum.TraceFP {
		t.Fatalf("shipped trace fingerprints to %s, summary says %s", got, sum.TraceFP)
	}
	// The two summaries differ only in the payload's trace flag: the
	// measured run is identical.
	var bareSum PayloadSummary
	if err := json.Unmarshal(bare[:len(bare)-1], &bareSum); err != nil {
		t.Fatal(err)
	}
	if bareSum.TraceFP != sum.TraceFP || bareSum.ElapsedSec != sum.ElapsedSec {
		t.Fatal("trace shipping changed the measured run")
	}
}

func fingerprintHex(b []byte) string {
	fp := fnv.New64a()
	fp.Write(b)
	h := fp.Sum64()
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[h&0xf]
		h >>= 4
	}
	return string(out)
}
