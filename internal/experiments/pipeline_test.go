package experiments

import (
	"testing"
	"time"
)

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
