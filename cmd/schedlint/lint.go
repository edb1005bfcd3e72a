package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one schedlint finding.
type Diagnostic struct {
	File string // path relative to the module root, forward slashes
	Line int
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Rule, d.Msg)
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Standard     bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string // _test.go in the package itself
	XTestGoFiles []string // _test.go in the external pkg_test package
	Module       *listModule
	Error        *listError
}

type listModule struct {
	Path string
	Dir  string
}

type listError struct {
	Err string
}

// load enumerates the packages matched by patterns under root together with
// their full dependency closure and compiled export data, by shelling out to
// the go command (the only tool that knows the build graph). Export data is
// what lets the type checker resolve imports without re-type-checking the
// world from source.
func load(root string, patterns []string) ([]*listPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Standard,Export,GoFiles,TestGoFiles,XTestGoFiles,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := &listPkg{}
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the export files `go list -export`
// reported, so type-checking a lint target never recurses into source of
// its dependencies.
type exportImporter struct {
	inner   types.Importer
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, pkgs []*listPkg) *exportImporter {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	e := &exportImporter{exports: exports}
	e.inner = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := e.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return e
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.inner.Import(path)
}

// deterministicPkgs are the module-relative package prefixes that form the
// deterministic simulation core: everything inside them must produce
// bitwise-identical results from (config, seed) alone. Packages outside the
// set (stats, topo, cache, perf) either sort before iterating or are
// pure functions of their inputs, and the host-facing cmds may format and
// time freely — but the wall-clock and concurrency rules still apply to
// them.
var deterministicPkgs = []string{
	"internal/sim",
	"internal/kernel",
	"internal/sched",
	"internal/task",
	"internal/rbtree",
	"internal/mpi",
	"internal/nas",
	"internal/noise",
	"internal/cluster",
	"internal/experiments",
	"internal/schedcheck",
	"internal/schedstat",
	"internal/batch",
	"internal/simq",
	"internal/binheap",
}

// pkgScope classifies a target package for rule selection.
type pkgScope struct {
	rel           string // module-relative import path
	deterministic bool
	isWalltime    bool // the one package allowed to read the host clock
	isPool        bool // the one package allowed to create goroutines
}

func scopeOf(modPath, importPath string) pkgScope {
	rel := strings.TrimPrefix(importPath, modPath)
	rel = strings.TrimPrefix(rel, "/")
	s := pkgScope{rel: rel}
	s.isWalltime = rel == "internal/walltime"
	s.isPool = rel == "internal/pool"
	for _, p := range deterministicPkgs {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			s.deterministic = true
			break
		}
	}
	return s
}

// FindModuleRoot walks up from dir to the enclosing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// Run lints the module rooted at root, restricted to the packages matched
// by patterns (dependencies are loaded for type information but only
// module-local packages are linted). It layers four passes over one load:
// the per-file syntactic rules, the interprocedural determinism taint, the
// invariants-contract check, and the walltime-only lint of test files in
// deterministic packages — then audits every //schedlint:ignore directive
// for staleness. Test files are otherwise exempt: tests may randomise and
// fan out freely.
func Run(root string, patterns []string) ([]Diagnostic, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := load(root, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, pkgs)
	ign := newIgnoreIndex()
	graph := newCallGraph(modPath, root)

	// Pass 1: parse, type-check, per-file rules; the same walk feeds the
	// call graph and the ignore index. Deferred reporting (diags collected
	// per file, stale audit at the end) keeps suppression-use bookkeeping
	// independent of pass order within a file.
	var diags []Diagnostic
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || p.Module.Dir != root {
			continue
		}
		scope := scopeOf(modPath, p.ImportPath)
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", name, err)
			}
			if rel, rerr := filepath.Rel(root, filepath.Join(p.Dir, name)); rerr == nil {
				ign.scanFile(fset, f, filepath.ToSlash(rel))
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
		}
		var typeErr error
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if typeErr == nil {
					typeErr = err
				}
			},
		}
		// The package already compiled under `go list -export`, so a type
		// error here is a schedlint bug or stale cache; fail loudly either
		// way rather than lint half-typed syntax.
		conf.Check(p.ImportPath, fset, files, info)
		if typeErr != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, typeErr)
		}
		for _, f := range files {
			diags = append(diags, lintFile(fset, f, info, scope, root, ign)...)
		}
		graph.addPackage(fset, files, info)

		// Pass 4 (interleaved with the load): walltime-only lint of the
		// deterministic packages' test files, syntactic by design.
		if scope.deterministic {
			testNames := append(append([]string{}, p.TestGoFiles...), p.XTestGoFiles...)
			tdiags, err := lintTestFiles(fset, p.Dir, testNames, root, ign)
			if err != nil {
				return nil, err
			}
			diags = append(diags, tdiags...)
		}
	}

	// Pass 2: interprocedural determinism taint over the whole module.
	diags = append(diags, runTaint(graph, ign)...)

	// Pass 3: structural invariants-contract check.
	diags = append(diags, runInvcheck(graph, ign)...)

	// Finally: report ignore directives that suppressed nothing anywhere.
	diags = append(diags, ign.audit()...)

	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Msg < diags[j].Msg
	})
	return diags, nil
}
