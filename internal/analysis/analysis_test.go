package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantClauseRe extracts each quoted regexp from a `// want "re" "re"`
// expectation comment.
var (
	wantLineRe   = regexp.MustCompile(`// want ("[^"]+"(?: "[^"]+")*)`)
	wantClauseRe = regexp.MustCompile(`"([^"]+)"`)
)

// expectation is one golden diagnostic: an exact file:line position plus a
// regexp the message must match. hit marks it consumed so each expected
// diagnostic must appear exactly once.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadFixture type-checks one testdata package and collects its `want`
// expectations. A line may carry several clauses: `// want "re1" "re2"`
// expects two diagnostics on that line.
func loadFixture(t *testing.T, dir string) (*Package, []*expectation) {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("LoadDir(%s): no buildable package", dir)
	}
	var wants []*expectation
	for file, src := range pkg.Src {
		for i, line := range strings.Split(string(src), "\n") {
			m := wantLineRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, clause := range wantClauseRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(clause[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", file, i+1, clause[1], err)
				}
				wants = append(wants, &expectation{file: file, line: i + 1, re: re})
			}
		}
	}
	return pkg, wants
}

// runFixture applies analyzers to a fixture package and matches the
// diagnostics against its expectations: every diagnostic must match an
// unconsumed want at its exact file:line, and every want must be hit.
func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	pkg, wants := loadFixture(t, dir)
	if len(wants) < 2 {
		t.Fatalf("fixture %s declares %d expectations; need at least 2 positive cases", fixture, len(wants))
	}
	diags := RunAnalyzers([]*Package{pkg}, analyzers)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic at %s:%d (want %q)", w.file, w.line, w.re)
		}
	}
}

func TestPoolPairFixture(t *testing.T)   { runFixture(t, "poolpair", PoolPair) }
func TestLockHoldFixture(t *testing.T)   { runFixture(t, "lockhold", LockHold) }
func TestFrameAliasFixture(t *testing.T) { runFixture(t, "framealias", FrameAlias) }
func TestObsConstFixture(t *testing.T)   { runFixture(t, "obsconst", ObsConst) }
func TestWireTaintFixture(t *testing.T)  { runFixture(t, "wiretaint", WireTaint) }
func TestBindStateFixture(t *testing.T)  { runFixture(t, "bindstate", BindState) }

// TestLockOrderFixture exercises at least one interprocedural
// (through-helper) lock-order finding.
func TestLockOrderFixture(t *testing.T) { runFixture(t, "lockorder", LockOrder) }

// TestHotAllocFixture drives the allocation analyzer: every warm site
// kind, through-helper propagation (fill's sites carry the process ->
// fill path), sanctioned allocators, cold branches, and the allocok /
// coldpath / allocator directives.
func TestHotAllocFixture(t *testing.T) { runFixture(t, "hotalloc", HotAlloc) }

// TestInterprocFixture drives poolpair and framealias through helper
// boundaries: acquires, releases and aliasing facts must flow via the
// interprocedural summaries, not annotations.
func TestInterprocFixture(t *testing.T) {
	runFixture(t, "interproc", PoolPair, FrameAlias)
}

// TestLoaderModuleWide exercises the "./..." pattern against the real
// module: every package must load and type-check through the stdlib-only
// loader.
func TestLoaderModuleWide(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide load is slow")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("Load ./... found only %d packages", len(pkgs))
	}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for _, want := range []string{"cool/internal/orb", "cool/internal/bufpool", "cool/internal/giop"} {
		if !seen[want] {
			t.Errorf("Load ./... missing %s", want)
		}
	}
}

// TestSuppressionScopes pins the //coollint:allow comment semantics: a
// whole-line comment suppresses the next line, a trailing comment its own,
// and names must match the reporting analyzer.
func TestSuppressionScopes(t *testing.T) {
	pkg, _ := loadFixture(t, mustAbs(t, filepath.Join("testdata", "src", "framealias")))
	// Every line carrying a trailing //coollint:allow framealias comment
	// must produce no diagnostic.
	allowed := make(map[string]map[int]bool)
	for file, src := range pkg.Src {
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "//coollint:allow framealias") {
				if allowed[file] == nil {
					allowed[file] = make(map[int]bool)
				}
				allowed[file][i+1] = true
			}
		}
	}
	if len(allowed) == 0 {
		t.Fatal("fixture has no //coollint:allow framealias site to exercise")
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{FrameAlias})
	for _, d := range diags {
		if allowed[d.Pos.Filename][d.Pos.Line] {
			t.Errorf("suppressed site still reported: %s", d)
		}
	}
}

func mustAbs(t *testing.T, p string) string {
	t.Helper()
	abs, err := filepath.Abs(p)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}
