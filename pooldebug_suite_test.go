// The pooldebug suite driver: runs the whole test suite once more with the
// pooldebug runtime verifier compiled in (buffer poisoning, double-release
// panics, leak ledgers). The build tag below keeps the driver out of the
// child run — the suite must not recurse into itself.

//go:build !pooldebug

package cool_test

import (
	"bufio"
	"bytes"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestPoolDebugSuite re-runs `go test ./...` under -tags pooldebug. Any
// pooling-contract violation anywhere in the tree fails this test with the
// verifier's panic (double release, with both stacks) or a leak report.
// The failure message names the failing packages and tests first, then
// gives the child's whole output.
func TestPoolDebugSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("pooldebug suite re-runs all tests; skipped in -short")
	}
	cmd := exec.Command("go", "test", "-count=1", "-tags", "pooldebug", "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go test -tags pooldebug ./... failed: %v\nfailing:\n%s\n\nfull output:\n%s",
			err, strings.Join(childFailures(out), "\n"), out)
	}
}

// childFailures picks the lines of `go test` output that name a failure:
// each failing test or subtest (`--- FAIL: name`) and each failing package
// (`FAIL<tab>path`, or `FAIL path [build failed]`).
func childFailures(out []byte) []string {
	var fails []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "--- FAIL: ") || strings.HasPrefix(line, "FAIL\t") || strings.HasPrefix(line, "FAIL ") {
			fails = append(fails, line)
		}
	}
	return fails
}

func TestChildFailuresListsPackagesAndTests(t *testing.T) {
	out := []byte("ok  \tcool/internal/cdr\t0.1s\n" +
		"--- FAIL: TestShape (0.07s)\n" +
		"    x_test.go:132: p50 too low\n" +
		"    --- FAIL: TestShape/sub (0.01s)\n" +
		"FAIL\n" +
		"FAIL\tcool/internal/experiments\t1.2s\n" +
		"FAIL cool/internal/orb [build failed]\n")
	want := []string{
		"--- FAIL: TestShape (0.07s)",
		"--- FAIL: TestShape/sub (0.01s)",
		"FAIL\tcool/internal/experiments\t1.2s",
		"FAIL cool/internal/orb [build failed]",
	}
	if got := childFailures(out); !slices.Equal(got, want) {
		t.Fatalf("childFailures = %q\nwant %q", got, want)
	}
}
