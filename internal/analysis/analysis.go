// Package analysis is the static-analysis layer of the COOL reproduction:
// a small, stdlib-only analyzer framework plus the suite of analyzers that
// mechanically enforce the pooling and ownership contracts introduced with
// the zero-allocation invocation hot path (see DESIGN.md, "Static analysis
// & ownership contracts").
//
// The framework mirrors the spirit of golang.org/x/tools/go/analysis but is
// deliberately self-contained (go/ast + go/types + go/importer only): the
// module carries zero dependencies and the analyzers need nothing beyond
// type-resolved syntax.
//
// Analysis is interprocedural: before any analyzer runs, a Program is
// built over every loaded package — a module-wide call graph plus one
// Summary per function (wire-taint flow from parameters to results,
// alloc/loop sinks, bounds-guard facts, pool acquire/release effects,
// lock and blocking effects, warm allocations),
// computed bottom-up over the condensation of strongly connected
// components. Analyzers consult summaries at call sites, so contracts
// hold through un-annotated helpers.
//
// Analyzers:
//
//   - poolpair:   every acquired pool object (cdr.AcquireEncoder,
//     giop.UnmarshalPooled/AcquireMessage, bufpool.Get, functions
//     annotated //coollint:acquires, and helpers whose summaries show
//     them acquiring or releasing) is released on all control-flow
//     paths, never released twice, and never used after release.
//   - lockhold:   no blocking channel operation, select without default,
//     or sync Wait while a sync.Mutex/RWMutex is held.
//   - wiretaint:  integers decoded from the wire (cdr.Decoder reads,
//     binary.ByteOrder loads) must be bounds-checked before they size an
//     allocation or bound a loop, directly or through helper calls.
//   - bindstate:  explicit-binding lifecycle typestate — no invocations
//     or SetQoSParameter through proxies of a shut-down ORB, no
//     discarded SetQoSParameter errors, every deferred-invocation
//     Pending consumed by Wait/Poll/Cancel.
//   - lockorder:  the module-wide lock-ordering graph (lock B acquired
//     while lock A is held, through helpers too) has no cycles and no
//     re-entrant self-edges — the ABBA deadlock class.
//   - hotalloc:   no unsanctioned heap allocation (make/new, growing
//     append, interface boxing, closures, goroutine spawns, string
//     conversions, formatting calls, map writes) is reachable through
//     synchronous calls from a //coollint:hotpath root; failure branches
//     and the pooled arena allocators are exempt.
//
// Intended exceptions are declared in the source with line annotations:
//
//	//coollint:owner            this acquisition intentionally escapes
//	//coollint:allow <analyzer> suppress one analyzer on this line
//	//coollint:allocok <reason> this allocation is acceptable on the hot
//	                            path for the stated reason
//
// and on function declarations:
//
//	//coollint:acquires <kind>  calls return an owned pool object
//	                            (kind: encoder, message, or buffer)
//	//coollint:releases         passing a tracked object releases it
//	//coollint:hotpath          allocation-audit root: the warm spine
//	//coollint:coldpath         off the latency path (setup, teardown)
//	//coollint:allocator        sanctioned arena/pool machinery
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one invariant checker. Run inspects a type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //coollint:allow annotations.
	Name string
	// Doc is a one-line description shown by `coollint -list`.
	Doc string
	// Run performs the check.
	Run func(*Pass)
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{PoolPair, LockHold, WireTaint, BindState, LockOrder, HotAlloc}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the module-wide interprocedural view (call graph and
	// per-function summaries) shared by every pass of one run.
	Prog *Program

	// suppress maps file -> line -> analyzer names allowed there.
	suppress map[*token.File]map[int]map[string]bool
	diags    *[]Diagnostic
	// suppressed collects findings silenced by //coollint:allow, for the
	// suppression-stats summary.
	suppressed *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding unless the line carries a matching
// //coollint:allow annotation.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowed(pos) {
		if p.suppressed != nil {
			*p.suppressed = append(*p.suppressed, Diagnostic{
				Pos:      position,
				Analyzer: p.Analyzer.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		}
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowed reports whether pos sits on (or directly under) a line annotated
// //coollint:allow for this analyzer.
func (p *Pass) allowed(pos token.Pos) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	lines := p.suppress[tf]
	if lines == nil {
		return false
	}
	line := tf.Line(pos)
	// An annotation suppresses findings on its own line and, when it is a
	// whole-line comment, on the line below it.
	return lines[line][p.Analyzer.Name] || lines[line]["*"]
}

// annotationsFor builds the suppression index for a file. A comment
// "//coollint:allow name1 name2" marks its own line; a comment that is the
// only thing on its line marks the following line instead. src is the
// file's raw content, used to tell trailing comments from whole-line ones.
func annotationsFor(fset *token.FileSet, file *ast.File, src []byte) map[int]map[string]bool {
	lines := make(map[int]map[string]bool)
	mark := func(line int, names []string) {
		m := lines[line]
		if m == nil {
			m = make(map[string]bool)
			lines[line] = m
		}
		for _, n := range names {
			m[n] = true
		}
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			names, ok := allowNames(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Slash)
			// Whole-line comments annotate the next line; trailing comments
			// annotate their own.
			if isLineStart(fset, c.Slash, src) {
				mark(pos.Line+1, names)
			} else {
				mark(pos.Line, names)
			}
		}
	}
	return lines
}

// allowNames parses "//coollint:allow a b" comment text. Everything after
// a "--" separator is explanatory prose.
func allowNames(text string) ([]string, bool) {
	const prefix = "//coollint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(text[len(prefix):])
	if reason, _, ok := strings.Cut(rest, "--"); ok {
		rest = strings.TrimSpace(reason)
	}
	if rest == "" {
		return []string{"*"}, true
	}
	return strings.Fields(rest), true
}

// isLineStart reports whether only whitespace precedes pos on its line.
func isLineStart(fset *token.FileSet, pos token.Pos, src []byte) bool {
	tf := fset.File(pos)
	if tf == nil || src == nil {
		return false
	}
	off := tf.Offset(pos)
	start := tf.Offset(tf.LineStart(tf.Line(pos)))
	if start < 0 || off > len(src) {
		return false
	}
	for _, b := range src[start:off] {
		if b != ' ' && b != '\t' {
			return false
		}
	}
	return true
}

// funcAnnotation returns the directive value for a function declaration:
// the text after "//coollint:<key>" in its doc comment or any comment
// directly above it, e.g. key "acquires" over
// "//coollint:acquires encoder" yields "encoder".
func funcAnnotation(decl *ast.FuncDecl, key string) (string, bool) {
	if decl.Doc == nil {
		return "", false
	}
	prefix := "//coollint:" + key
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, prefix) {
			return strings.TrimSpace(c.Text[len(prefix):]), true
		}
	}
	return "", false
}

// ownerAnnotated reports whether the line of pos (or the line above it)
// carries a //coollint:owner annotation in file.
func ownerAnnotated(fset *token.FileSet, file *ast.File, pos token.Pos) bool {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//coollint:owner") {
				continue
			}
			cl := fset.Position(c.Slash).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAnalyzersDetail(pkgs, analyzers)
	return diags
}

// RunAnalyzersDetail is RunAnalyzers plus the findings silenced by
// //coollint:allow annotations (for suppression statistics). The
// interprocedural Program is built once over all packages and shared by
// every pass.
func RunAnalyzersDetail(pkgs []*Package, analyzers []*Analyzer) (diags, suppressed []Diagnostic) {
	diags, suppressed, _ = RunAnalyzersTimed(pkgs, analyzers)
	return diags, suppressed
}

// AnalyzerTiming is the cumulative wall time one analyzer spent across
// every package of a run.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunAnalyzersTimed is RunAnalyzersDetail plus per-analyzer wall time,
// returned in the analyzers' run order. The shared Program build is not
// attributed to any analyzer.
func RunAnalyzersTimed(pkgs []*Package, analyzers []*Analyzer) (diags, suppressed []Diagnostic, timings []AnalyzerTiming) {
	prog := BuildProgram(pkgs)
	elapsed := make([]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		suppress := make(map[*token.File]map[int]map[string]bool)
		for _, f := range pkg.Files {
			if tf := pkg.Fset.File(f.Pos()); tf != nil {
				suppress[tf] = annotationsFor(pkg.Fset, f, pkg.Src[tf.Name()])
			}
		}
		for i, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				Prog:       prog,
				suppress:   suppress,
				diags:      &diags,
				suppressed: &suppressed,
			}
			start := time.Now()
			a.Run(pass)
			elapsed[i] += time.Since(start)
		}
	}
	for i, a := range analyzers {
		timings = append(timings, AnalyzerTiming{Name: a.Name, Elapsed: elapsed[i]})
	}
	sortDiagnostics(suppressed)
	sortDiagnostics(diags)
	return diags, suppressed, timings
}

func sortDiagnostics(diags []Diagnostic) {
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
}
