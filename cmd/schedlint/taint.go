package main

import (
	"fmt"
	"sort"
	"strings"
)

// The interprocedural determinism taint pass closes the loophole the
// per-file rules leave open: wrap time.Now (or a goroutine, or os.Getenv,
// or an order-leaking map range) in a helper one package away and the
// direct-call rules go silent. Here every function that directly performs
// a nondeterministic operation is a source; taint propagates backwards
// over the call graph; and any function in a deterministic-core entry
// package whose call edge leads to a tainted callee is flagged with the
// full witness path, e.g.
//
//	kernel.Tick -> helpers.Jitter -> walltime.Start -> time.Now
//
// The report lands on the call edge that crosses from the core into the
// tainted chain, and a //schedlint:ignore taint directive on that line
// (or the line above) suppresses exactly that edge — the justification
// lives where the dependency is taken, not where the source hides. A
// suppressed edge also stops carrying taint to its caller: the function
// that justified the dependency owns it, and the callers above it stay
// clean instead of each re-reporting the same sanctioned crossing.

// taintRootPkgs are the deterministic-core entry packages: every function
// inside them is an entry point whose transitive behaviour must be a pure
// function of (config, seed). This is deliberately narrower than
// deterministicPkgs: packages like internal/experiments orchestrate
// replications through internal/pool and own their worker-invariance
// proof, so they are governed by the per-file rules only.
var taintRootPkgs = []string{
	"internal/sim",
	"internal/sched",
	"internal/kernel",
	"internal/rbtree",
	"internal/schedcheck",
	"internal/schedstat",
	"internal/batch",
	"internal/simq",
}

func isTaintRoot(rel string) bool {
	for _, p := range taintRootPkgs {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// taintWitness records, for one tainted function, the first step of a
// path that ends at a nondeterministic source.
type taintWitness struct {
	next string       // funcKey of the next node on the path, "" at a source
	src  *taintSource // set only at a direct source
}

// propagateTaint computes the tainted set with witness chains. Direct
// sources seed the set; then taint flows caller-ward to a fixed point,
// except across edges a //schedlint:ignore taint directive sanctions —
// the justified crossing absorbs the taint there. Every witness points
// at a node tainted strictly earlier, so chains always terminate at a
// source even through call cycles, and the deterministic iteration order
// (sorted nodes, edges in body order) makes the reported path stable run
// to run.
func propagateTaint(g *callGraph, ign *ignoreIndex) map[string]*taintWitness {
	tainted := make(map[string]*taintWitness)
	nodes := g.sortedNodes()
	for _, n := range nodes {
		if len(n.sources) > 0 {
			src := n.sources[0]
			for _, s := range n.sources[1:] {
				if s.pos.Filename < src.pos.Filename ||
					(s.pos.Filename == src.pos.Filename && s.pos.Line < src.pos.Line) {
					src = s
				}
			}
			tainted[n.key] = &taintWitness{src: &src}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if tainted[n.key] != nil {
				continue
			}
			for _, e := range n.calls {
				if tainted[e.callee] != nil {
					if ign.suppressed(e.pos.Filename, e.pos.Line, ruleTaint) {
						continue
					}
					tainted[n.key] = &taintWitness{next: e.callee}
					changed = true
					break
				}
			}
		}
	}
	return tainted
}

// taintPath renders the witness chain starting at node key, ending with
// the source description.
func taintPath(g *callGraph, tainted map[string]*taintWitness, key string) string {
	var steps []string
	for key != "" {
		n := g.nodes[key]
		w := tainted[key]
		if n == nil || w == nil {
			steps = append(steps, "?")
			break
		}
		steps = append(steps, n.short)
		if w.src != nil {
			steps = append(steps, w.src.desc)
			break
		}
		key = w.next
	}
	return strings.Join(steps, " -> ")
}

// runTaint reports every call edge from a deterministic-core function to
// a tainted callee. Direct sources inside core functions are not repeated
// here: those are exactly the sites the per-file rules already flag.
func runTaint(g *callGraph, ign *ignoreIndex) []Diagnostic {
	tainted := propagateTaint(g, ign)
	var diags []Diagnostic
	for _, n := range g.sortedNodes() {
		if !isTaintRoot(n.pkgRel) {
			continue
		}
		for _, e := range n.calls {
			if tainted[e.callee] == nil {
				continue
			}
			if ign.suppressed(e.pos.Filename, e.pos.Line, ruleTaint) {
				continue
			}
			path := n.short + " -> " + taintPath(g, tainted, e.callee)
			diags = append(diags, Diagnostic{
				File: e.pos.Filename,
				Line: e.pos.Line,
				Rule: ruleTaint,
				Msg: fmt.Sprintf("deterministic core transitively reaches a nondeterministic source: %s; "+
					"results must be a pure function of (config, seed) — break the chain or justify with //schedlint:ignore taint at this call", path),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		// Deterministic tiebreak: (file, line, message) totally orders the
		// report set.
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Msg < diags[j].Msg
	})
	return diags
}
