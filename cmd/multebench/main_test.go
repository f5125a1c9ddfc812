package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	// Only the cheap experiments; fig9 and the latency sweeps run in the
	// experiments package's own tests. pipeline keeps E10's table printer
	// covered.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	for _, exp := range []string{"marshal", "pipeline"} {
		if err := run([]string{"-quick", "-experiment", exp}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	// load and obs are not paper experiments: bench/run.sh and the ops
	// endpoint cover them.
	for _, exp := range []string{"warp", "load", "obs"} {
		if err := run([]string{"-experiment", exp}); err == nil {
			t.Errorf("-experiment %s should fail", exp)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-json"},
		{"-stats"},
		{"-load-conc", "1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v should fail", args)
		}
	}
}

var (
	// docInvocation is the rest of a doc line after "multebench", up to
	// the end of its code span or shell comment.
	docInvocation = regexp.MustCompile("multebench([^`#\n]*)")
	docFlag       = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	docExperiment = regexp.MustCompile(`-experiment\s+([a-z0-9]+)`)
)

// TestDocsNameLiveMultebenchFlags checks that every multebench flag and
// experiment the docs show is one multebench accepts.
func TestDocsNameLiveMultebenchFlags(t *testing.T) {
	fs := newFlagSet(new(options))
	known := map[string]bool{}
	for _, tb := range tables {
		known[tb.name] = true
	}
	var flags, exps int
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docInvocation.FindAllStringSubmatch(string(text), -1) {
			for _, f := range docFlag.FindAllStringSubmatch(m[1], -1) {
				flags++
				if fs.Lookup(f[1]) == nil {
					t.Errorf("%s: multebench%s: no flag -%s", doc, strings.TrimRight(m[1], " "), f[1])
				}
			}
			for _, e := range docExperiment.FindAllStringSubmatch(m[1], -1) {
				exps++
				if !known[e[1]] {
					t.Errorf("%s: multebench%s: no experiment %q", doc, strings.TrimRight(m[1], " "), e[1])
				}
			}
		}
	}
	if flags == 0 || exps == 0 {
		t.Fatalf("found %d flags and %d experiments in the docs; the patterns no longer match", flags, exps)
	}
}
