package experiments

import (
	"testing"
	"time"
)

// TestRunLoadClosedLoop smokes the closed-loop harness at small scale: a
// short window must complete without errors and report sane percentiles
// from the production histograms.
func TestRunLoadClosedLoop(t *testing.T) {
	res, err := RunLoad(LoadOptions{
		Transport: "tcp",
		Conc:      32,
		Payload:   64,
		Duration:  200 * time.Millisecond,
		Warmup:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" {
		t.Fatalf("mode = %q, want closed", res.Mode)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Requests == 0 || res.Throughput <= 0 {
		t.Fatalf("no traffic measured: %+v", res)
	}
	if res.P50us <= 0 || res.P99us < res.P50us {
		t.Fatalf("percentiles out of order: p50=%d p99=%d", res.P50us, res.P99us)
	}
}

// TestRunLoadOpenLoop smokes the paced-arrival mode: the rate target keeps
// the request count near rate*duration and percentiles come from the same
// obs path.
func TestRunLoadOpenLoop(t *testing.T) {
	res, err := RunLoad(LoadOptions{
		Transport:  "tcp",
		Conc:       64,
		Payload:    64,
		Duration:   300 * time.Millisecond,
		Warmup:     50 * time.Millisecond,
		RatePerSec: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" {
		t.Fatalf("mode = %q, want open", res.Mode)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	// 2000/s over 300ms ≈ 600 arrivals; allow generous scheduling slack in
	// both directions but catch a broken pacer (0 or unbounded).
	if res.Requests+res.Dropped < 200 {
		t.Fatalf("pacer barely fired: %+v", res)
	}
	if res.Requests > 2000 {
		t.Fatalf("pacer overshot a 600-arrival budget: %+v", res)
	}
}

// TestPipelineHidesLatency is experiment E10: over a simulated high-RTT
// link, pipelined concurrent invocations on one multiplexed connection
// must beat call-by-call sequential use by a wide margin, because queued
// frames share flights instead of paying one RTT each.
func TestPipelineHidesLatency(t *testing.T) {
	res, err := RunPipelineExperiment(4*time.Millisecond, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.SequentialRPS <= 0 || res.PipelinedRPS <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	// 8-way pipelining over a 4ms RTT should approach 8x; require 2x so
	// the assertion stays robust on loaded CI machines.
	if res.Speedup < 2 {
		t.Fatalf("pipelining speedup = %.2f, want >= 2 (seq %.0f rps, pipe %.0f rps)",
			res.Speedup, res.SequentialRPS, res.PipelinedRPS)
	}
}
