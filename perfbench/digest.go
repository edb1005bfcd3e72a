package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// The repository's FNV-1a-style word fold (batch and schedcheck fingerprints
// use the same constants).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fold(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

func foldF(h uint64, f float64) uint64 { return fold(h, math.Float64bits(f)) }

func foldB(h uint64, b bool) uint64 {
	if b {
		return fold(h, 1)
	}
	return fold(h, 0)
}

// mix derives an input seed from the run seed and a position, so every
// round and item gets its own stream (splitmix64 finaliser).
func mix(parts ...uint64) uint64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		z ^= p
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// digests.json stores the round-0 digest of each workload and size for the
// default seed, keyed "<workload>/<size>/<seed>". A change that moves any
// simulated output for those inputs fails the run.
//
//go:embed digests.json
var digestsJSON []byte

// expectedDigest returns the digest a run must reproduce and whether one is
// known: --expect-digest wins, then the stored table.
func expectedDigest(o options) (string, bool) {
	if o.expect != "" {
		return o.expect, true
	}
	var table map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		panic("perfbench: digests.json is not a JSON object: " + err.Error())
	}
	d, ok := table[fmt.Sprintf("%s/%s/%d", o.workload, o.size, o.seed)]
	return d, ok
}
