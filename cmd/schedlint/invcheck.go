package main

import (
	"fmt"
	"sort"
	"strings"
)

// The invcheck pass enforces the runtime-invariants contract structurally:
// in the packages that carry build-tag-gated structural audits
// (internal/rbtree, internal/sched/cfs, internal/kernel), every exported
// method that mutates the audited type's state must — directly or through
// any chain of calls, including event closures it registers — reach that
// type's check method. The check methods are discovered by convention:
// they are the methods declared in the package's invariants_off.go (the
// no-op stubs compiled into normal builds; the invariants build replaces
// them with the real audits). A refactor that adds a mutating entry point
// without wiring the audit, or that orphans the audit entirely, fails the
// lint instead of silently narrowing the -tags invariants net.

// invcheckPkgs are the module-relative packages under the contract.
var invcheckPkgs = map[string]bool{
	"internal/rbtree":    true,
	"internal/sched/cfs": true,
	"internal/kernel":    true,
	"internal/batch":     true,
	"internal/simq":      true,
	"internal/binheap":   true,
}

const invariantsStubFile = "invariants_off.go"

// runInvcheck reports exported mutating methods that never reach their
// type's invariants check.
func runInvcheck(g *callGraph, ign *ignoreIndex) []Diagnostic {
	// Check methods per (package, receiver type), found via the stub file.
	checks := make(map[string]map[string]bool) // pkgRel+"."+recvType -> set of funcKeys
	for _, n := range g.sortedNodes() {
		if !invcheckPkgs[n.pkgRel] || n.declBase != invariantsStubFile || n.recvType == "" {
			continue
		}
		tkey := n.pkgRel + "." + n.recvType
		if checks[tkey] == nil {
			checks[tkey] = make(map[string]bool)
		}
		checks[tkey][n.key] = true
	}
	if len(checks) == 0 {
		return nil
	}

	// A method "mutates" if it mutates directly or calls, transitively
	// within its own package, something that does. The same-package
	// restriction keeps the property about the audited type's own state:
	// crossing into another package means crossing into that package's
	// contract (and its own invariants check, if it has one).
	mutating := make(map[string]bool)
	nodes := g.sortedNodes()
	for _, n := range nodes {
		if n.mutates {
			mutating[n.key] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if mutating[n.key] {
				continue
			}
			for _, e := range n.calls {
				callee := g.nodes[e.callee]
				if callee != nil && callee.pkgRel == n.pkgRel && mutating[e.callee] {
					mutating[n.key] = true
					changed = true
					break
				}
			}
		}
	}

	var diags []Diagnostic
	for _, n := range nodes {
		if !invcheckPkgs[n.pkgRel] || !n.exported || n.recvType == "" || !n.recvPtr {
			continue
		}
		tkey := n.pkgRel + "." + n.recvType
		checkSet := checks[tkey]
		if len(checkSet) == 0 || checkSet[n.key] || n.declBase == invariantsStubFile {
			continue
		}
		if !mutating[n.key] {
			continue
		}
		if g.reachesFrom(n.key, checkSet) {
			continue
		}
		if ign.suppressed(n.relFile, n.declLine, ruleInvcheck) {
			continue
		}
		diags = append(diags, Diagnostic{
			File: n.relFile,
			Line: n.declLine,
			Rule: ruleInvcheck,
			Msg: fmt.Sprintf("%s mutates %s state but never reaches %s; "+
				"call the -tags invariants check after the mutation (or justify with //schedlint:ignore invcheck)",
				n.short, n.recvType, describeChecks(g, checkSet)),
		})
	}
	return diags
}

// reachesFrom reports whether start can reach any key in targets over
// call edges.
func (g *callGraph) reachesFrom(start string, targets map[string]bool) bool {
	seen := map[string]bool{start: true}
	stack := []string{start}
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if targets[key] {
			return true
		}
		n := g.nodes[key]
		if n == nil {
			continue
		}
		for _, e := range n.calls {
			if !seen[e.callee] {
				seen[e.callee] = true
				stack = append(stack, e.callee)
			}
		}
	}
	return false
}

func describeChecks(g *callGraph, checkSet map[string]bool) string {
	var names []string
	for key := range checkSet {
		if n := g.nodes[key]; n != nil {
			names = append(names, "("+ptrStar(n)+n.recvType+")."+n.name)
		}
	}
	// Deterministic tiebreak: names are unique per type, sorted
	// lexicographically.
	sort.Strings(names)
	return strings.Join(names, " or ")
}

func ptrStar(n *funcNode) string {
	if n.recvPtr {
		return "*"
	}
	return ""
}
