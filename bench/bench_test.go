package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smokeConfig runs the whole method in a fraction of a second per
// workload. Nothing here asserts a timing.
func smokeConfig(t *testing.T, trace bool) *config {
	return &config{
		seed: 42, slices: 2, slice: 100 * time.Millisecond, warmup: 20 * time.Millisecond,
		setups: 4, trace: trace, outDir: t.TempDir(),
		probes: probeSizing{rounds: 1, calls: 20, trips: 10, connects: 5, flood: 200},
	}
}

// TestSmoke runs every workload untraced and traced and checks that the
// result carries exactly the metrics BENCHMARK.json promises for that kind
// of run, with their units, and that every output check passed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, trace)
			res, err := runWorkload(w, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d failed of %d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s (trace %v): metric %s missing", w.name, trace, d.name)
				} else if got.Unit != d.unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.name, got.Unit, d.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, got.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace.json")); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", w.name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the root of the
// repository names the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < minSlices || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want %d..60", doc.RunSeconds, minSlices)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			got := listed[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s metric %+v: bad name, unit or direction", kind, d)
			}
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, d.name, d.bound)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
	if last := endToEnd[len(endToEnd)-1]; last.name != "setup_s" || last.unit != "s" || last.better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better; have %+v", last)
	}
}
