// Multebench regenerates the paper's evaluation tables and figures plus the
// ablations listed in DESIGN.md §4.
//
// Usage:
//
//	multebench                         # run everything
//	multebench -experiment fig9        # one experiment: fig9 | giop |
//	                                   # negotiation | transport | config |
//	                                   # marshal | pipeline | reconfig
//	multebench -experiment pipeline    # E10: high-RTT request pipelining
//	multebench -experiment reconfig    # E12: mid-stream module-graph
//	                                   # renegotiation under load (no
//	                                   # loss, no duplication)
//	multebench -quick                  # smaller sample counts
//
// Output is plain text tables, one per experiment, in the same arrangement
// as the paper (Figure 9: configurations × packet sizes, throughput in
// Mbit/s). Performance comparisons between revisions are bench/run.sh's
// job, not this tool's.
package main

import (
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

// options are multebench's command-line flags.
type options struct {
	experiment string
	quick      bool
}

func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("multebench", flag.ContinueOnError)
	fs.StringVar(&o.experiment, "experiment", "all", "experiment to run: fig9|giop|negotiation|transport|config|marshal|pipeline|reconfig|all")
	fs.BoolVar(&o.quick, "quick", false, "smaller sample counts (noisier, faster)")
	return fs
}

// table is one experiment multebench prints.
type table struct {
	name string
	run  func(quick bool) error
}

// tables lists every experiment, in the order "all" runs them.
var tables = []table{
	{"fig9", runFig9},
	{"giop", func(quick bool) error { return runGIOP(samples(quick), payload) }},
	{"negotiation", func(quick bool) error { return runNegotiation(samples(quick)/4, payload) }},
	{"transport", func(quick bool) error { return runTransport(samples(quick), payload) }},
	{"config", func(bool) error { return runConfig() }},
	{"marshal", func(bool) error { return runMarshal() }},
	{"pipeline", runPipeline},
	{"reconfig", runReconfig},
}

// payload is the echo size of the latency experiments.
const payload = 1024

// samples is the round-trip count of the latency experiments.
func samples(quick bool) int {
	if quick {
		return 50
	}
	return 400
}

func run(args []string) error {
	var o options
	if err := newFlagSet(&o).Parse(args); err != nil {
		return err
	}
	if o.experiment != "all" {
		for _, t := range tables {
			if t.name == o.experiment {
				return t.run(o.quick)
			}
		}
		return fmt.Errorf("unknown experiment %q", o.experiment)
	}
	for _, t := range tables {
		if err := t.run(o.quick); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n══ %s ══\n\n", title)
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

func runPipeline(quick bool) error {
	rtt, conc, invocations := 20*time.Millisecond, 32, 640
	if quick {
		rtt, conc, invocations = 5*time.Millisecond, 16, 320
	}
	header(fmt.Sprintf("E10 — request pipelining on one connection (simulated %v RTT)", rtt))
	res, err := experiments.RunPipelineExperiment(rtt, conc, invocations)
	if err != nil {
		return err
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
