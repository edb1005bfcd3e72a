package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// allocPatterns are the hot-path packages under the allocation budget:
// the packages whose inner loops earned their 0-alloc claims in the
// benchmark suites and must not silently regain heap traffic.
var allocPatterns = []string{
	"./internal/sim",
	"./internal/sched/...",
	"./internal/kernel",
	"./internal/topo",
	"./internal/schedstat",
	"./internal/batch",
	"./internal/simq",
	"./internal/binheap",
}

// allocBudget is the committed per-function escape budget.
type allocBudget struct {
	// Toolchain records which compiler produced the counts: escape
	// analysis is a compiler implementation detail, so counts are only
	// comparable within one go minor version.
	Toolchain string `json:"toolchain"`
	// Patterns documents the package set the budget covers.
	Patterns []string `json:"patterns"`
	// Funcs maps "pkg/rel/path.(*Recv).Method" to its allowed number of
	// heap-escape sites. Functions absent from the map have budget 0.
	Funcs map[string]int `json:"funcs"`
}

// marshalBudget renders the canonical byte form: sorted keys (Go's JSON
// encoder sorts map keys), two-space indent, trailing newline. `-alloc
// -update` must be byte-identical when nothing changed, so this is the
// only serializer.
func marshalBudget(b *allocBudget) []byte {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic("schedlint: marshaling alloc budget: " + err.Error()) // struct of strings and ints cannot fail
	}
	return append(out, '\n')
}

func readBudget(path string) (*allocBudget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading alloc budget: %v (run `schedlint -alloc -update` to create it)", err)
	}
	b := &allocBudget{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("parsing alloc budget %s: %v", path, err)
	}
	return b, nil
}

// declSite locates a function for diagnostics.
type declSite struct {
	file string // module-relative, forward slashes
	line int
}

// funcIndex maps (file, line) ranges to function keys for one package set.
type funcIndex struct {
	byFile map[string][]declSpan // keyed by module-relative file path
	sites  map[string]declSite   // funcKey -> declaration site
}

type declSpan struct {
	start, end int
	key        string
}

// computeAlloc builds the current escape counts for the packages matched
// by patterns: one `go build -gcflags=-m` per package in sorted import
// order (per-package runs pin the output order; the go command replays
// compiler diagnostics from the build cache byte-identically), parsed and
// attributed to enclosing declarations.
func computeAlloc(root string, patterns []string) (map[string]int, *funcIndex, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := load(root, patterns)
	if err != nil {
		return nil, nil, err
	}
	var targets []*listPkg
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || p.Module.Dir != root {
			continue
		}
		targets = append(targets, p)
	}
	// load returns the dependency closure too; restrict to the packages
	// the patterns actually matched by rebuilding the match list.
	matched, err := listMatched(root, patterns)
	if err != nil {
		return nil, nil, err
	}
	var build []*listPkg
	for _, p := range targets {
		if matched[p.ImportPath] {
			build = append(build, p)
		}
	}
	// Deterministic tiebreak: import paths are unique, sorted
	// lexicographically.
	sort.Slice(build, func(i, j int) bool { return build[i].ImportPath < build[j].ImportPath })

	idx := &funcIndex{byFile: make(map[string][]declSpan), sites: make(map[string]declSite)}
	fset := token.NewFileSet()
	for _, p := range build {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath), "/")
		for _, name := range p.GoFiles {
			abs := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, abs, nil, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("parse %s: %v", name, err)
			}
			relFile, err := filepath.Rel(root, abs)
			if err != nil {
				return nil, nil, err
			}
			relFile = filepath.ToSlash(relFile)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := rel + "." + recvPrefix(fd) + fd.Name.Name
				start := fset.Position(fd.Pos())
				end := fset.Position(fd.End())
				idx.byFile[relFile] = append(idx.byFile[relFile], declSpan{start: start.Line, end: end.Line, key: key})
				idx.sites[key] = declSite{file: relFile, line: start.Line}
			}
		}
	}

	counts := make(map[string]int)
	for _, p := range build {
		cmd := exec.Command("go", "build", "-gcflags=-m", p.ImportPath)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("go build -gcflags=-m %s: %v\n%s", p.ImportPath, err, stderr.String())
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath), "/")
		for _, d := range parseEscapeDiagnostics(stderr.Bytes()) {
			counts[idx.attribute(rel, d)]++
		}
	}
	return counts, idx, nil
}

// attribute maps one diagnostic to a function key within package pkgRel.
func (idx *funcIndex) attribute(pkgRel string, d escapeDiag) string {
	if strings.HasPrefix(d.File, "<autogenerated") {
		return pkgRel + ".(autogenerated)"
	}
	for _, span := range idx.byFile[filepath.ToSlash(d.File)] {
		if span.start <= d.Line && d.Line <= span.end {
			return span.key
		}
	}
	return pkgRel + ".(toplevel)"
}

// recvPrefix renders a declaration's receiver as "(T)." / "(*T)." (type
// parameters stripped), or "" for plain functions.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
		star = "*"
	}
	switch t := t.(type) {
	case *ast.IndexExpr: // generic receiver Tree[V]
		if id, ok := t.X.(*ast.Ident); ok {
			return "(" + star + id.Name + ")."
		}
	case *ast.IndexListExpr: // generic receiver with several type params
		if id, ok := t.X.(*ast.Ident); ok {
			return "(" + star + id.Name + ")."
		}
	case *ast.Ident:
		return "(" + star + t.Name + ")."
	}
	return "(" + star + "?)."
}

// listMatched returns the import paths the patterns match directly
// (without the dependency closure load adds).
func listMatched(root string, patterns []string) (map[string]bool, error) {
	args := append([]string{"list"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	matched := make(map[string]bool)
	for _, line := range strings.Split(stdout.String(), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			matched[line] = true
		}
	}
	return matched, nil
}

// toolchainMinor truncates a runtime version to its minor release:
// "go1.24.0" -> "go1.24". Escape analysis is stable within a minor.
func toolchainMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

// AllocUpdate regenerates the budget file from the current tree.
func AllocUpdate(root string, patterns []string, path string) error {
	counts, _, err := computeAlloc(root, patterns)
	if err != nil {
		return err
	}
	b := &allocBudget{Toolchain: runtime.Version(), Patterns: patterns, Funcs: counts}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, marshalBudget(b), 0o644)
}

// AllocCheck diffs the current escape counts against the committed
// budget. It returns the findings, or a non-empty skip reason when the
// gate cannot meaningfully run (budget recorded under a different
// compiler minor — counts are not comparable, CI pins the right one).
func AllocCheck(root string, patterns []string, path string) ([]Diagnostic, string, error) {
	budget, err := readBudget(path)
	if err != nil {
		return nil, "", err
	}
	if toolchainMinor(budget.Toolchain) != toolchainMinor(runtime.Version()) {
		return nil, fmt.Sprintf("alloc budget recorded with %s but running %s; escape counts are only comparable within a compiler minor",
			budget.Toolchain, runtime.Version()), nil
	}
	counts, idx, err := computeAlloc(root, patterns)
	if err != nil {
		return nil, "", err
	}
	relBudget, rerr := filepath.Rel(root, path)
	if rerr != nil {
		relBudget = path
	}
	relBudget = filepath.ToSlash(relBudget)

	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	for k := range budget.Funcs {
		if _, present := counts[k]; !present {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var diags []Diagnostic
	for _, k := range keys {
		got, want := counts[k], budget.Funcs[k]
		if got == want {
			continue
		}
		site, known := idx.sites[k]
		if !known {
			site = declSite{file: relBudget, line: 1}
		}
		switch {
		case got > want:
			diags = append(diags, Diagnostic{
				File: site.file, Line: site.line, Rule: ruleAlloc,
				Msg: fmt.Sprintf("%s: %d heap escape(s), budget %d; a hot path gained an allocation — "+
					"eliminate it or run `schedlint -alloc -update` with a justification", k, got, want),
			})
		default:
			diags = append(diags, Diagnostic{
				File: site.file, Line: site.line, Rule: ruleAlloc,
				Msg: fmt.Sprintf("%s: %d heap escape(s), budget %d; the budget is stale and would hide the "+
					"next regression — run `schedlint -alloc -update`", k, got, want),
			})
		}
	}
	return diags, "", nil
}
