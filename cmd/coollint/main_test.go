package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cool/internal/analysis"
)

// fixture is a module-relative package that always produces diagnostics
// for its namesake analyzer, and carries //coollint:allow sites.
const fixture = "internal/analysis/testdata/src/lockhold"

// cleanPkg is a module-relative package with no findings.
const cleanPkg = "internal/bufpool"

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeClean(t *testing.T) {
	code, stdout, stderr := runCmd(t, cleanPkg)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean run printed diagnostics:\n%s", stdout)
	}
}

func TestExitCodeFindings(t *testing.T) {
	code, stdout, stderr := runCmd(t, fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "lockhold") {
		t.Fatalf("diagnostics missing analyzer name:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Fatalf("summary missing from stderr:\n%s", stderr)
	}
}

func TestExitCodeLoadError(t *testing.T) {
	code, _, stderr := runCmd(t, "no/such/dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
}

func TestExitCodeUnknownAnalyzer(t *testing.T) {
	// All unknown names are collected into one error, alongside the valid
	// name list.
	code, _, stderr := runCmd(t, "-only", "nosuch,lockorder,alsobad", cleanPkg)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Fatalf("stderr missing unknown-analyzer message:\n%s", stderr)
	}
	for _, want := range []string{"nosuch", "alsobad", "valid:"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

func TestOnlyEmptySelection(t *testing.T) {
	code, _, stderr := runCmd(t, "-only", ", ,", cleanPkg)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "selected no analyzers") {
		t.Fatalf("stderr missing empty-selection message:\n%s", stderr)
	}
}

func TestListNamesAllAnalyzers(t *testing.T) {
	code, stdout, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"poolpair", "lockhold", "wiretaint", "bindstate", "lockorder", "hotalloc"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout)
		}
	}
}

func TestListOutputLocked(t *testing.T) {
	// -list is part of the CLI surface scripts grep: one line per analyzer,
	// name column then the one-line Doc, in registration order. Adding or
	// renaming an analyzer must update this table deliberately.
	want := []struct{ name, doc string }{
		{"poolpair", "pooled objects are released exactly once on every path"},
		{"lockhold", "no blocking channel operation, Wait, or blocking call while a mutex is held"},
		{"wiretaint", "wire-derived sizes must be bounds-checked before allocation or loop use"},
		{"bindstate", "explicit-binding lifecycle: no use after ORB shutdown, QoS errors checked, Pendings consumed"},
		{"lockorder", "lock acquisition order is consistent module-wide (no deadlock cycles)"},
		{"hotalloc", "no unsanctioned heap allocation is reachable from a //coollint:hotpath root"},
	}
	var exp strings.Builder
	for _, w := range want {
		exp.WriteString(fmt.Sprintf("%-12s %s\n", w.name, w.doc))
	}
	code, stdout, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if stdout != exp.String() {
		t.Fatalf("-list output drifted:\n--- want ---\n%s--- got ---\n%s", exp.String(), stdout)
	}
}

func TestOnlyRestrictsAnalyzers(t *testing.T) {
	// The lockhold fixture trips lockhold but not bindstate: restricting
	// to bindstate must come back clean.
	code, stdout, stderr := runCmd(t, "-only", "bindstate", fixture)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if code, _, _ := runCmd(t, "-only", "lockhold", fixture); code != 1 {
		t.Fatalf("-only lockhold exit = %d, want 1", code)
	}
}

func TestOnlyCommaSeparatedList(t *testing.T) {
	// A multi-analyzer selection (with a stray trailing comma) runs every
	// named analyzer: the lockhold fixture still trips lockhold, and the
	// others ride along clean.
	code, stdout, _ := runCmd(t, "-only", "bindstate,lockorder,", fixture)
	if code != 0 {
		t.Fatalf("bindstate,lockorder exit = %d, want 0\nstdout:\n%s", code, stdout)
	}
	code, stdout, _ = runCmd(t, "-only", "bindstate,lockhold", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "lockhold") {
		t.Fatalf("diagnostics missing lockhold findings:\n%s", stdout)
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCmd(t, "-json", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var recs []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &recs); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout)
	}
	if len(recs) == 0 {
		t.Fatal("JSON output is empty")
	}
	for _, r := range recs {
		if r.Analyzer != "lockhold" {
			t.Errorf("unexpected analyzer %q", r.Analyzer)
		}
		if filepath.IsAbs(r.File) || !strings.HasPrefix(r.File, "internal/analysis/testdata/") {
			t.Errorf("file not module-relative: %q", r.File)
		}
		if r.Line <= 0 || r.Col <= 0 {
			t.Errorf("missing position: %+v", r)
		}
	}
}

func TestSuppressionStats(t *testing.T) {
	// The lockhold fixture carries two //coollint:allow lockhold sites
	// (and one naming another analyzer, which silences nothing); -stats
	// must count them. Findings still exist, so the exit code stays 1.
	code, stdout, _ := runCmd(t, "-stats", "-only", "lockhold", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	want := "suppressions: 2 finding(s) silenced by //coollint:allow\n" +
		fmt.Sprintf("  %-12s %d\n", "lockhold", 2)
	if !strings.Contains(stdout, want) {
		t.Fatalf("suppression summary should count the two lockhold sites:\n%s", stdout)
	}
	if !strings.Contains(stdout, "timings: 1 analyzer(s)") {
		t.Fatalf("-stats missing per-analyzer wall time:\n%s", stdout)
	}
}

// TestReadmeTableMatchesSuite keeps the README's analyzer table in step
// with the suite: one row per analyzer, in registration order.
func TestReadmeTableMatchesSuite(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "## Linting the pooling contracts")
	if !ok {
		t.Fatal("README.md has no lint section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(cell, "`")
			rows = append(rows, name)
		}
	}
	var want []string
	for _, a := range analysis.All() {
		want = append(want, a.Name)
	}
	if strings.Join(rows, ",") != strings.Join(want, ",") {
		t.Fatalf("README analyzer table rows = %v, want analysis.All() = %v", rows, want)
	}
}
