// Command coollint runs the COOL static-analysis suite: custom analyzers
// that enforce the pooling/ownership, wire-bounds, and binding-lifecycle
// contracts of the invocation path (see internal/analysis and DESIGN.md).
//
// Usage:
//
//	coollint [-list] [-only name,name] [-json] [-stats] [patterns...]
//
// Patterns follow the loader's subset of go tool syntax: "./..." (default)
// for the whole module, "dir/..." for a subtree, or a module-relative
// directory. Diagnostics print as file:line:col: analyzer: message (or as
// a JSON array with -json); the exit status is 1 when any diagnostic is
// reported, 2 on load errors. -stats appends a summary of findings
// silenced by //coollint:allow annotations and per-analyzer wall time.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flag"

	"cool/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coollint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array")
	stats := fs.Bool("stats", false, "print a summary of suppressed findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		seen := make(map[string]bool)
		var unknown []string
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if n == "" || seen[n] {
				continue
			}
			seen[n] = true
			if a, ok := byName[n]; ok {
				picked = append(picked, a)
			} else {
				unknown = append(unknown, n)
			}
		}
		if len(unknown) > 0 {
			valid := make([]string, len(analyzers))
			for i, a := range analyzers {
				valid[i] = a.Name
			}
			fmt.Fprintf(stderr, "coollint: unknown analyzer(s): %s (valid: %s)\n",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
			return 2
		}
		if len(picked) == 0 {
			fmt.Fprintln(stderr, "coollint: -only selected no analyzers")
			return 2
		}
		analyzers = picked
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "coollint: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "coollint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "coollint: %v\n", err)
		return 2
	}

	diags, suppressed, timings := analysis.RunAnalyzersTimed(pkgs, analyzers)

	if *asJSON {
		if err := emitJSON(stdout, loader.ModuleRoot, diags); err != nil {
			fmt.Fprintf(stderr, "coollint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}

	if *stats {
		printSuppressionStats(stdout, suppressed)
		printTimingStats(stdout, timings)
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "coollint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relPath maps an absolute filename to a module-root-relative slash path,
// keeping JSON output portable across checkouts.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// emitJSON renders diagnostics as a JSON array of position/message
// records with module-relative paths.
func emitJSON(w io.Writer, root string, diags []analysis.Diagnostic) error {
	type rec struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	out := make([]rec, len(diags))
	for i, d := range diags {
		out[i] = rec{
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// printTimingStats lists cumulative per-analyzer wall time in run order,
// so a slow analyzer shows up in CI logs before it becomes a problem.
func printTimingStats(w io.Writer, timings []analysis.AnalyzerTiming) {
	var total time.Duration
	for _, t := range timings {
		total += t.Elapsed
	}
	fmt.Fprintf(w, "timings: %d analyzer(s), %s total\n", len(timings), total.Round(time.Microsecond))
	for _, t := range timings {
		fmt.Fprintf(w, "  %-12s %s\n", t.Name, t.Elapsed.Round(time.Microsecond))
	}
}

// printSuppressionStats summarizes //coollint:allow usage per analyzer so
// suppression debt stays visible.
func printSuppressionStats(w io.Writer, suppressed []analysis.Diagnostic) {
	if len(suppressed) == 0 {
		fmt.Fprintln(w, "suppressions: none")
		return
	}
	perAnalyzer := make(map[string]int)
	for _, d := range suppressed {
		perAnalyzer[d.Analyzer]++
	}
	names := make([]string, 0, len(perAnalyzer))
	for n := range perAnalyzer {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "suppressions: %d finding(s) silenced by //coollint:allow\n", len(suppressed))
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %d\n", n, perAnalyzer[n])
	}
}
