// Package lint is SilkMoth's repo-invariant analyzer suite: custom static
// analyzers over go/parser + go/types that mechanically enforce contracts
// the dynamic harnesses (AllocsPerRun gates, crash-injection enumeration,
// metrics-scrape conformance) can only catch after the fact. The suite is
// dependency-free by design — packages are loaded through `go list -export`
// and type-checked with the standard library's export-data importer, so the
// linter builds with the same zero third-party imports as the engine.
//
// The analyzers (run by cmd/silkmothlint, gated in CI):
//
//	hotpath      functions annotated //silkmoth:hotpath must be free of
//	             allocation-inducing constructs (fmt, reflection sort.Slice,
//	             string↔[]byte/[]rune conversions, map/slice literals,
//	             zero-capacity append growth, capturing closures, interface
//	             boxing at call sites)
//	fsyncerr     internal/wal durability calls (Write/Sync/Close/Rename/
//	             Truncate/SyncDir) must not discard their errors
//	ctxflow      no context.Background()/TODO() inside the root silkmoth
//	             package, internal/core or internal/server; their exported
//	             Search*/Discover* entrypoints must take a context.Context
//	metricnames  every silkmothd_* metric family named in internal/server /
//	             internal/obs must pass the in-repo exposition parser's
//	             name rules and appear in the README metric catalog
//
// A diagnostic on a line that genuinely cannot follow the rule is silenced
// with a trailing comment of the form
//
//	//silkmothlint:ignore <analyzer> <reason>
//
// where the reason is mandatory: suppressions are grep-able design notes,
// not mute buttons.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	Name string
	// Doc is the one-line rule statement shown by `silkmothlint -list`.
	Doc string
	// Applies reports whether the analyzer's scope includes the package.
	// Scope is matched on import-path suffixes so fixture packages under
	// testdata/src/ can claim in-scope paths (e.g. internal/wal).
	Applies func(pkg *Package) bool
	Run     func(pass *Pass)
}

// Pass is one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotPath, FsyncErr, CtxFlow, MetricNames}
}

// ByName resolves a comma-separated analyzer list ("hotpath,ctxflow").
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run applies each in-scope analyzer to each package, filters suppressed
// findings, and returns the remainder ordered by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := suppressions(pkg)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &pkgDiags}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			if sup[supKey{file: d.Pos.Filename, line: d.Pos.Line, analyzer: d.Analyzer}] {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

type supKey struct {
	file     string
	line     int
	analyzer string
}

// suppressions collects //silkmothlint:ignore comments. A suppression
// silences one analyzer on the comment's own line and requires a reason.
func suppressions(pkg *Package) map[supKey]bool {
	sup := make(map[supKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//silkmothlint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// No reason given: leave the finding standing so the
					// bare suppression is itself visible in the run.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sup[supKey{file: pos.Filename, line: pos.Line, analyzer: fields[0]}] = true
			}
		}
	}
	return sup
}

// hasSuffixPath reports whether path ends with the slash-separated suffix
// (e.g. "silkmoth/internal/wal" matches suffix "internal/wal", while
// "silkmoth/internal/wal/failfs" does not).
func hasSuffixPath(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// inspectFiles walks every non-test file of the package.
func inspectFiles(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
