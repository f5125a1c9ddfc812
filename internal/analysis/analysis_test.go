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

func TestPoolPairFixture(t *testing.T)  { runFixture(t, "poolpair", PoolPair) }
func TestLockHoldFixture(t *testing.T)  { runFixture(t, "lockhold", LockHold) }
func TestWireTaintFixture(t *testing.T) { runFixture(t, "wiretaint", WireTaint) }
func TestBindStateFixture(t *testing.T) { runFixture(t, "bindstate", BindState) }

// TestLockOrderFixture exercises at least one interprocedural
// (through-helper) lock-order finding.
func TestLockOrderFixture(t *testing.T) { runFixture(t, "lockorder", LockOrder) }

// TestHotAllocFixture drives the allocation analyzer: every warm site
// kind, through-helper propagation (fill's sites carry the process ->
// fill path), sanctioned allocators, cold branches, and the allocok /
// coldpath / allocator directives.
func TestHotAllocFixture(t *testing.T) { runFixture(t, "hotalloc", HotAlloc) }

// TestInterprocFixture drives poolpair through helper boundaries:
// acquire, release and queue-handoff facts must flow via the
// interprocedural summaries, not annotations.
func TestInterprocFixture(t *testing.T) { runFixture(t, "interproc", PoolPair) }

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

// TestLoaderSkipsNestedModule pins "./..." to the enclosing module: a
// directory with its own go.mod (the repo's bench module) is a separate
// module and is not walked, so its packages are out of lint scope.
func TestLoaderSkipsNestedModule(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module outer\n\ngo 1.22\n")
	write("a/a.go", "package a\n")
	write("nested/go.mod", "module outer/nested\n\ngo 1.22\n")
	// Would fail to type-check if the walk entered the nested module.
	write("nested/b/b.go", "package b\n\nvar _ int = \"not an int\"\n")
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if strings.Join(paths, ",") != "outer/a" {
		t.Fatalf("Load ./... = %v, want only outer/a", paths)
	}
}

// TestSuppressionScopes pins the //coollint:allow comment semantics on
// the lockhold fixture: a trailing comment silences its own line, a
// whole-line comment the line below it, and an allow naming another
// analyzer silences nothing. Every silenced finding is still collected
// for -stats.
func TestSuppressionScopes(t *testing.T) {
	pkg, _ := loadFixture(t, mustAbs(t, filepath.Join("testdata", "src", "lockhold")))
	if len(pkg.Src) != 1 {
		t.Fatalf("lockhold fixture has %d files, want 1", len(pkg.Src))
	}
	// silenced holds the lines the lockhold allows cover; reported the
	// lines whose allow names another analyzer.
	silenced, reported := make(map[int]bool), make(map[int]bool)
	for _, src := range pkg.Src {
		for i, line := range strings.Split(string(src), "\n") {
			trimmed := strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(trimmed, "//coollint:allow lockhold"):
				silenced[i+2] = true
			case strings.Contains(line, "//coollint:allow lockhold"):
				silenced[i+1] = true
			case strings.Contains(line, "//coollint:allow lockorder"):
				reported[i+1] = true
			}
		}
	}
	if len(silenced) != 2 || len(reported) != 1 {
		t.Fatalf("fixture has %d lockhold and %d lockorder allow sites, want 2 and 1", len(silenced), len(reported))
	}
	diags, suppressed := RunAnalyzersDetail([]*Package{pkg}, []*Analyzer{LockHold})
	for _, d := range diags {
		if silenced[d.Pos.Line] {
			t.Errorf("suppressed site still reported: %s", d)
		}
		delete(reported, d.Pos.Line)
	}
	for line := range reported {
		t.Errorf("line %d: an allow naming another analyzer silenced lockhold", line)
	}
	for _, d := range suppressed {
		if !silenced[d.Pos.Line] {
			t.Errorf("finding silenced without a covering allow: %s", d)
		}
		delete(silenced, d.Pos.Line)
	}
	for line := range silenced {
		t.Errorf("line %d: allowed finding missing from the suppressed list", line)
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
