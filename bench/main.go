// Command bench is the one COOL benchmark: seven named workloads, the
// end-to-end metrics a user of the ORB sees, and — from a separate traced
// run — a per-layer latency budget. BENCHMARK.json at the root of the
// repository names the same workloads and metrics; README.md explains the
// choices.
//
//	bash bench/run.sh                                   every workload, untraced
//	bash bench/run.sh -trace 1                          every workload, traced
//	bash bench/run.sh -workload echo_tcp_mux -seed 7    one workload
//	bash bench/run.sh -repeat 2                         run-to-run agreement against the bounds
//
// Each workload's report ends with one JSON line holding correct,
// attempted, failed and metrics. Any failed operation or output check, and
// any workload that did not exercise its mechanism, makes the command exit
// non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = flag.Uint64("seed", 1, "seed for payload octets and the bind_qos QoS sequence")
		seconds = flag.Int("seconds", 14, "measured one-second slices per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the set this many times and compare the runs against the bounds")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for trace.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *repeat < 1 || *seconds < 1 || (*trace == 1 && *seconds < 2) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := &config{
		seed: *seed, slices: *seconds, slice: defaultSlice, warmup: defaultWarmup,
		setups: defaultSetups, trace: *trace == 1, outDir: *outDir, probes: fullProbes, fullSize: true,
	}
	printEnv(os.Stdout, cfg)

	ok := true
	var reps []map[string]result
	for rep := 0; rep < *repeat; rep++ {
		results := make(map[string]result)
		for _, w := range selected {
			res, err := runWorkload(w, cfg, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", line)
			ok = ok && res.Correct
			results[w.name] = res
		}
		reps = append(reps, results)
	}
	if *repeat > 1 && !cfg.trace {
		ok = compareRuns(os.Stdout, selected, reps) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func selectWorkloads(names string) ([]*workload, error) {
	all := workloads()
	if names == "" {
		return all, nil
	}
	var out []*workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// result is the last line a workload prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printEnv(w io.Writer, cfg *config) {
	fmt.Fprintf(w, "env: %s %s/%s, nproc %d, GOMAXPROCS %d, git %s, seed %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), gitRev(), cfg.seed)
	fmt.Fprintf(w, "env: harness.timer_ns %.1f (one read of the harness's monotonic clock)\n", timerCost())
	fmt.Fprintf(w, "method: %d cold set-up cycles, half before and half after the workload (median is setup_s), %v warm-up, %d slices of %v; rates and percentiles are the median slice's\n",
		cfg.setups, cfg.warmup, cfg.slices, cfg.slice)
}

// gitRev reads the checked-out commit from .git without running git; the
// driver's checkouts are not repositories.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return ref
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// runWorkload measures one workload and prints its report.
func runWorkload(w *workload, cfg *config, out io.Writer) (result, error) {
	fmt.Fprintf(out, "\n== %s — %s\n   closed loop: %s\n", w.name, w.why, w.load)
	lr := layerReport{}
	m, err := measure(w, cfg, lr)
	if err != nil {
		return result{}, err
	}
	if cfg.fullSize && w.underLoad != nil {
		if err := w.underLoad(lr); err != nil {
			return result{}, fmt.Errorf("workload validity: %w", err)
		}
	}

	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]value),
	}
	win := m.untraced
	e2e := map[string]float64{
		"latency_p50_us": win.p50 / 1e3,
		"latency_p99_us": win.p99 / 1e3,
		"ops_per_s":      win.opsPerS,
		"goodput_mbit_s": win.opsPerS * float64(w.payload) * 8 / 1e6,
		"setup_s":        m.setupS,
	}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "   %-16s %14.6g %-7s %-6s better, bound %2.0f%%, n=%d\n",
			d.name, e2e[d.name], d.unit, d.better, d.bound*100, samplesBehind(d.name, win, cfg))
	}
	fmt.Fprintf(out, "   slices, 1/s: %s\n", formatValues(win.rates))
	fmt.Fprintf(out, "   %-16s %14.6f ratio   (%d failed of %d attempted)\n",
		"failed_share", float64(m.failed)/float64(m.attempted), m.failed, m.attempted)
	if m.failed > 0 {
		fmt.Fprintf(out, "   first failure: %s\n", m.why)
	}

	if !cfg.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = value{e2e[d.name], d.unit}
		}
		return res, nil
	}

	reportSpans(m.spans, lr)
	if err := probeLayers(&w.path, cfg.probes, lr); err != nil {
		return result{}, err
	}
	lr["runtime.allocs_per_op"] = m.mallocs
	lr["runtime.bytes_per_op"] = m.bytes
	if win.opsPerS > 0 {
		lr["trace_overhead_share"] = 1 - m.traced.opsPerS/win.opsPerS
	}
	if len(w.path.budget) > 0 {
		lr["orb.unexplained_ns"] = win.p50 - budgetSum(&w.path, lr)
	}
	fmt.Fprintf(out, "   per layer (traced slices alternate with untraced ones; %d latency samples traced):\n", m.traced.n)
	for _, d := range perLayer {
		res.Metrics[d.name] = value{lr[d.name], d.unit}
		if lr[d.name] != 0 {
			fmt.Fprintf(out, "   %-30s %14.2f %s\n", d.name, lr[d.name], d.unit)
		}
	}
	printBudget(out, w, lr, win.p50)
	path, err := writeTrace(cfg.outDir, w.name, cfg.seed, m.spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "   spans written to %s\n", path)
	return res, nil
}

// samplesBehind is the number of samples a reported value rests on.
func samplesBehind(metric string, win window, cfg *config) int {
	switch metric {
	case "latency_p50_us", "latency_p99_us":
		return win.n
	case "setup_s":
		return cfg.setups
	}
	return cfg.slices
}

// budgetSum adds the non-overlapping rows of the workload's budget, in ns.
func budgetSum(p *path, lr layerReport) float64 {
	sum := lr["dacapo.connect_us"] * 1e3 // 0 unless an operation connects
	for _, row := range p.budget {
		sum += lr[row]
	}
	return sum
}

// printBudget lists the isolated rows against the spans they fall into and
// the residue no row explains: the next optimisation target.
func printBudget(out io.Writer, w *workload, lr layerReport, p50 float64) {
	if len(w.path.budget) == 0 {
		return
	}
	fmt.Fprintf(out, "   budget of one operation (ns):\n")
	fmt.Fprintf(out, "   %-34s %12.0f\n", "latency p50, untraced", p50)
	for _, row := range w.path.budget {
		fmt.Fprintf(out, "   - %-32s %12.0f\n", row, lr[row])
	}
	if c := lr["dacapo.connect_us"]; c != 0 {
		fmt.Fprintf(out, "   - %-32s %12.0f\n", "dacapo.connect_us (as ns)", c*1e3)
	}
	fmt.Fprintf(out, "   = %-32s %12.0f\n", "orb.unexplained_ns", lr["orb.unexplained_ns"])
	fmt.Fprintf(out, "   of which, inside orb.colocated_echo_ns:")
	for _, row := range []string{"cdr.octetseq_codec_ns", "giop.request_codec_ns", "giop.reply_codec_ns", "qos.negotiate_ns", "bufpool.get_put_ns", "obs.observe_ns"} {
		if lr[row] != 0 {
			fmt.Fprintf(out, " %s %.0f;", strings.TrimSuffix(row, "_ns"), lr[row])
		}
	}
	fmt.Fprintf(out, "\n   spans, median self time: request_path %.0f (servant %.0f) reply_path %.0f; client_pre %.0f client_post %.0f\n",
		lr["span.request_path_ns"], lr["span.servant_ns"], lr["span.reply_path_ns"], lr["span.client_pre_ns"], lr["span.client_post_ns"])
}

// compareRuns prints, per workload and end-to-end metric, every run's
// value, the largest relative difference between two runs, and the bound,
// and reports whether all pairs agree within their bounds (setup_s is shown
// but not gated).
func compareRuns(out io.Writer, selected []*workload, reps []map[string]result) bool {
	fmt.Fprintf(out, "\n== run-to-run agreement over %d runs\n", len(reps))
	fmt.Fprintf(out, "   %-20s %-16s %-40s %8s %6s\n", "workload", "metric", "values", "differ", "bound")
	agree := true
	for _, w := range selected {
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range reps {
				vals = append(vals, r[w.name].Metrics[d.name].Value)
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			lo, hi := sorted[0], sorted[len(sorted)-1]
			differ := math.Inf(1)
			if lo > 0 {
				differ = hi/lo - 1
			}
			mark := ""
			switch {
			case differ <= d.bound:
			case d.name == "setup_s":
				// A cold cycle is a few thread wake-ups long, and single
				// runs' medians differ by half on a busy host; only medians
				// over many runs of it can be held to a bound.
				mark = "  (not gated between single runs)"
			default:
				mark, agree = "  DISAGREE", false
			}
			fmt.Fprintf(out, "   %-20s %-16s %-40s %7.1f%% %5.0f%%%s\n",
				w.name, d.name, formatValues(vals), differ*100, d.bound*100, mark)
		}
	}
	return agree
}

func formatValues(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}
