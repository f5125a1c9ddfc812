// Multebench regenerates the paper's evaluation tables and figures plus the
// ablations listed in DESIGN.md §4.
//
// Usage:
//
//	multebench                         # run everything
//	multebench -experiment fig9        # one experiment: fig9 | giop |
//	                                   # negotiation | transport | config |
//	                                   # marshal | obs | load | pipeline
//	multebench -experiment load \
//	  -load-conc 10000 -load-rate 0    # E11: high-concurrency echo load,
//	                                   # closed loop (-load-rate 0) or
//	                                   # open loop (arrivals/second);
//	                                   # -load-json for machine output
//	multebench -experiment pipeline    # E10: high-RTT request pipelining
//	multebench -experiment reconfig    # E12: mid-stream module-graph
//	                                   # renegotiation under load (no
//	                                   # loss, no duplication)
//	multebench -quick                  # smaller sample counts
//	multebench -stats                  # metrics snapshot + recent trace
//	                                   # events after each run
//	multebench -json                   # machine-readable output of the
//	                                   # perf-regression set (transport,
//	                                   # marshal, giop) — the format
//	                                   # recorded in BENCH_PR*.json
//
// Output is plain text tables, one per experiment, in the same arrangement
// as the paper (Figure 9: configurations × packet sizes, throughput in
// Mbit/s).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"cool/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "multebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("multebench", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "experiment to run: fig9|giop|negotiation|transport|config|marshal|obs|load|pipeline|reconfig|all")
	quick := fs.Bool("quick", false, "smaller sample counts (noisier, faster)")
	stats := fs.Bool("stats", false, "print a metrics snapshot and recent trace events after each run")
	jsonOut := fs.Bool("json", false, "emit the perf-regression set (transport, marshal, giop) as JSON")
	loadConc := fs.Int("load-conc", 1000, "load: concurrent callers (closed loop) / outstanding cap (open loop)")
	loadPayload := fs.Int("load-payload", 256, "load: echo payload octets")
	loadDur := fs.Duration("load-duration", 2*time.Second, "load: measurement window")
	loadRate := fs.Int("load-rate", 0, "load: open-loop arrivals per second (0 = closed loop)")
	loadJSON := fs.Bool("load-json", false, "load/pipeline: emit the result as JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *stats {
		experiments.StatsHook = func(label, report string) {
			fmt.Printf("\n── stats [%s] ──\n%s", label, report)
		}
		defer func() { experiments.StatsHook = nil }()
	}

	n := 400
	payload := 1024
	if *quick {
		n = 50
	}

	if *jsonOut {
		return runJSON(n, payload, *quick)
	}

	loadOpts := experiments.LoadOptions{
		Conc:       *loadConc,
		Payload:    *loadPayload,
		Duration:   *loadDur,
		RatePerSec: *loadRate,
	}
	runs := map[string]func() error{
		"fig9":        func() error { return runFig9(*quick) },
		"giop":        func() error { return runGIOP(n, payload) },
		"negotiation": func() error { return runNegotiation(n/4, payload) },
		"transport":   func() error { return runTransport(n, payload) },
		"config":      func() error { return runConfig() },
		"marshal":     func() error { return runMarshal() },
		"obs":         func() error { return runObs(n / 8) },
		"load":        func() error { return runLoad(loadOpts, *loadJSON) },
		"pipeline":    func() error { return runPipeline(*quick, *loadJSON) },
		"reconfig":    func() error { return runReconfig(*quick) },
	}
	if *exp != "all" {
		fn, ok := runs[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		return fn()
	}
	for _, name := range []string{"fig9", "giop", "negotiation", "transport", "config", "marshal", "obs", "load", "pipeline", "reconfig"} {
		if err := runs[name](); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n══ %s ══\n\n", title)
}

// jsonRT is RTStats in nanoseconds for machine consumption.
type jsonRT struct {
	Samples int   `json:"samples"`
	MeanNs  int64 `json:"mean_ns"`
	P50Ns   int64 `json:"p50_ns"`
	P95Ns   int64 `json:"p95_ns"`
	P99Ns   int64 `json:"p99_ns"`
}

func toJSONRT(s experiments.RTStats) jsonRT {
	return jsonRT{Samples: s.N, MeanNs: s.Mean.Nanoseconds(),
		P50Ns: s.P50.Nanoseconds(), P95Ns: s.P95.Nanoseconds(), P99Ns: s.P99.Nanoseconds()}
}

// jsonReport is the machine-readable result of the perf-regression set.
// BENCH_PR*.json files record snapshots of this data (plus the matching
// `go test -bench` numbers) across PRs.
type jsonReport struct {
	Timestamp string `json:"timestamp"`
	Quick     bool   `json:"quick"`
	Transport []struct {
		Transport string `json:"transport"`
		RT        jsonRT `json:"rt"`
	} `json:"transport"`
	Marshal []struct {
		Version   string  `json:"version"`
		QoSParams int     `json:"qos_params"`
		WireBytes int     `json:"wire_bytes"`
		EncodeNs  float64 `json:"encode_ns"`
		DecodeNs  float64 `json:"decode_ns"`
	} `json:"marshal"`
	GIOP struct {
		Plain jsonRT `json:"giop_1_0"`
		QoS   jsonRT `json:"giop_9_9"`
	} `json:"giop"`
}

// runJSON measures the perf-regression experiments and prints one JSON
// document to stdout.
func runJSON(n, payload int, quick bool) error {
	var rep jsonReport
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
	rep.Quick = quick

	points, err := experiments.RunTransportComparison(n, payload)
	if err != nil {
		return err
	}
	for _, p := range points {
		rep.Transport = append(rep.Transport, struct {
			Transport string `json:"transport"`
			RT        jsonRT `json:"rt"`
		}{p.Transport, toJSONRT(p.Stats)})
	}

	iters := 20000
	if quick {
		iters = 2000
	}
	rows, err := experiments.RunMarshalComparison(iters)
	if err != nil {
		return err
	}
	for _, r := range rows {
		rep.Marshal = append(rep.Marshal, struct {
			Version   string  `json:"version"`
			QoSParams int     `json:"qos_params"`
			WireBytes int     `json:"wire_bytes"`
			EncodeNs  float64 `json:"encode_ns"`
			DecodeNs  float64 `json:"decode_ns"`
		}{r.Version, r.QoSParams, r.WireBytes, r.EncodeNs, r.DecodeNs})
	}

	cmp, err := experiments.RunGIOPComparison(n, payload)
	if err != nil {
		return err
	}
	rep.GIOP.Plain = toJSONRT(cmp.Plain)
	rep.GIOP.QoS = toJSONRT(cmp.QoS)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func runFig9(quick bool) error {
	header("E1 / Figure 9 — Da CaPo throughput (Mbit/s) per packet size and protocol configuration")
	fmt.Println("   (simulated 155 Mbit/s link; paper shape: bigger packets → higher throughput,")
	fmt.Println("    0→40 dummy modules ≈ flat, IRQ collapses under stop-and-wait flow control)")
	fmt.Println()
	opts := experiments.DefaultFig9Options()
	if quick {
		opts = experiments.QuickFig9Options()
	}
	start := time.Now()
	points, err := experiments.RunFig9(opts)
	if err != nil {
		return err
	}
	// Pivot: rows = configs, columns = packet sizes.
	sizes := experiments.Fig9PacketSizes()
	byConfig := map[string]map[int]float64{}
	var order []string
	for _, p := range points {
		if byConfig[p.Config] == nil {
			byConfig[p.Config] = map[int]float64{}
			order = append(order, p.Config)
		}
		byConfig[p.Config][p.PacketSize] = p.Mbps
	}
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(w, "config\\pkt")
	for _, s := range sizes {
		fmt.Fprintf(w, "\t%s", experiments.FormatSize(s))
	}
	fmt.Fprintln(w, "\t")
	for _, cfg := range order {
		fmt.Fprint(w, cfg)
		for _, s := range sizes {
			fmt.Fprintf(w, "\t%.1f", byConfig[cfg][s])
		}
		fmt.Fprintln(w, "\t")
	}
	w.Flush()
	fmt.Printf("\n   (measured in %v)\n", time.Since(start).Round(time.Second))
	return nil
}

func runGIOP(n, payload int) error {
	header("E2 — response time: original GIOP 1.0 vs QoS-extended GIOP 9.9")
	cmp, err := experiments.RunGIOPComparison(n, payload)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "version\tsamples\tmean\tp50\tp95\tp99\t")
	fmt.Fprintf(w, "GIOP 1.0 (no QoS)\t%d\t%v\t%v\t%v\t%v\t\n", cmp.Plain.N, cmp.Plain.Mean, cmp.Plain.P50, cmp.Plain.P95, cmp.Plain.P99)
	fmt.Fprintf(w, "GIOP 9.9 (qos_params)\t%d\t%v\t%v\t%v\t%v\t\n", cmp.QoS.N, cmp.QoS.Mean, cmp.QoS.P50, cmp.QoS.P95, cmp.QoS.P99)
	w.Flush()
	delta := float64(cmp.QoS.P50-cmp.Plain.P50) / float64(cmp.Plain.P50) * 100
	fmt.Printf("\n   p50 delta: %+.1f%% (paper: \"no differences in response time\")\n", delta)
	return nil
}

func runNegotiation(n, payload int) error {
	header("E3 — negotiation scenarios of Figure 3")
	points, err := experiments.RunNegotiationScenarios(n, payload)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "scenario\tsamples\tmean\tp50\tp95\tp99\t")
	for _, p := range points {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\t\n", p.Scenario, p.Stats.N, p.Stats.Mean, p.Stats.P50, p.Stats.P95, p.Stats.P99)
	}
	w.Flush()
	return nil
}

func runTransport(n, payload int) error {
	header("E4 — invocation latency per transport (1 KiB echo)")
	points, err := experiments.RunTransportComparison(n, payload)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "transport\tsamples\tmean\tp50\tp95\tp99\t")
	for _, p := range points {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\t\n", p.Transport, p.Stats.N, p.Stats.Mean, p.Stats.P50, p.Stats.P95, p.Stats.P99)
	}
	w.Flush()
	return nil
}

func runConfig() error {
	header("E5 — QoS → protocol configuration mapping (3% lossy link)")
	rows, err := experiments.RunConfigTable()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 4, 0, 2, ' ', 0)
	fmt.Fprintln(w, "requirements\tconfigured protocol\tdelivered loss\t")
	for _, r := range rows {
		loss := "n/a"
		if r.Measured {
			loss = fmt.Sprintf("%.1f%%", r.DeliveredLossPct)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t\n", r.Requirements, r.Spec, loss)
	}
	w.Flush()
	return nil
}

func runObs(n int) error {
	header("E7 — observability: cross-process tracing and metrics (Da CaPo over TCP)")
	if n < 4 {
		n = 4
	}
	demo, err := experiments.RunObsDemo(n)
	if err != nil {
		return err
	}
	fmt.Print(demo.Report)
	return nil
}

func runLoad(opts experiments.LoadOptions, asJSON bool) error {
	if !asJSON {
		mode := "closed loop"
		if opts.RatePerSec > 0 {
			mode = fmt.Sprintf("open loop, %d arrivals/s", opts.RatePerSec)
		}
		header(fmt.Sprintf("E11 — connection multiplexing at scale (%d callers, %s)", opts.Conc, mode))
	}
	res, err := experiments.RunLoad(opts)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "mode\tconc\treqs\terrs\tdropped\treq/s\tp50\tp95\tp99\tflush mean/p99\tflow p99\t")
	fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.0f\t%dµs\t%dµs\t%dµs\t%.1f/%d\t%dµs\t\n",
		res.Mode, res.Conc, res.Requests, res.Errors, res.Dropped, res.Throughput,
		res.P50us, res.P95us, res.P99us, res.FlushBatchMean, res.FlushBatchP99, res.FlowWaitP99us)
	w.Flush()
	return nil
}

func runPipeline(quick, asJSON bool) error {
	rtt, conc, invocations := 20*time.Millisecond, 32, 640
	if quick {
		rtt, conc, invocations = 5*time.Millisecond, 16, 320
	}
	if !asJSON {
		header(fmt.Sprintf("E10 — request pipelining on one connection (simulated %v RTT)", rtt))
	}
	res, err := experiments.RunPipelineExperiment(rtt, conc, invocations)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "rtt\tcallers\tinvocations\tsequential req/s\tpipelined req/s\tspeedup\tflush p99\t")
	fmt.Fprintf(w, "%dms\t%d\t%d\t%.1f\t%.1f\t%.1f×\t%d\t\n",
		res.RTTms, res.Conc, res.Invocations, res.SequentialRPS, res.PipelinedRPS, res.Speedup, res.FlushBatchP99)
	w.Flush()
	fmt.Printf("\n   (one shared connection; concurrent callers overlap RTTs and share writev batches)\n")
	return nil
}

func runReconfig(quick bool) error {
	opts := experiments.DefaultReconfigOptions()
	if quick {
		opts = experiments.QuickReconfigOptions()
	}
	header(fmt.Sprintf("E12 — mid-stream reconfiguration under load (%d msgs × %d B, %d splices)",
		opts.Messages, opts.MsgSize, opts.Splices))
	res, err := experiments.RunReconfig(opts)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "msgs\tsplices\tMbit/s\tlost\tdup\tinitiator s/c/a\tresponder s/c/a\t")
	fmt.Fprintf(w, "%d\t%d\t%.1f\t%d\t%d\t%d/%d/%d\t%d/%d/%d\t\n",
		res.Messages, res.Splices, res.Mbps, res.Lost, res.Duplicated,
		res.Initiator[0], res.Initiator[1], res.Initiator[2],
		res.Responder[0], res.Responder[1], res.Responder[2])
	w.Flush()
	fmt.Printf("\n   (cipher+crc32 ↔ rle+crc16 alternated mid-flood; strict sequence check: any\n" +
		"    loss, duplication or reorder across a splice fails the run; measured in " +
		res.Elapsed.Round(time.Millisecond).String() + ")\n")
	return nil
}

func runMarshal() error {
	header("E6 — Request wire size and codec cost of the qos_params extension")
	rows, err := experiments.RunMarshalComparison(20000)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "version\tqos params\twire bytes\tencode ns\tdecode ns\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t\n", r.Version, r.QoSParams, r.WireBytes, r.EncodeNs, r.DecodeNs)
	}
	w.Flush()
	return nil
}
