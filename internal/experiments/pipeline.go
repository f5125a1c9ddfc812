package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
)

// PipelineResult is the E10 measurement: sequential vs pipelined
// invocation throughput over a high-RTT simulated link.
type PipelineResult struct {
	RTTms         int64
	Conc          int
	Invocations   int
	SequentialRPS float64
	PipelinedRPS  float64
	Speedup       float64
	FlushBatchP99 uint64
}

// RunPipelineExperiment (E10) measures request pipelining on one
// connection over a netsim link with the given round-trip time: a single
// closed-loop caller pays a full RTT per invocation, while conc
// concurrent callers sharing the connection overlap their RTTs — the
// flush-coalescing writer batches their frames into shared writevs, so
// throughput approaches conc× sequential until the link saturates.
func RunPipelineExperiment(rtt time.Duration, conc, invocations int) (PipelineResult, error) {
	if conc < 1 {
		conc = 1
	}
	if invocations < conc {
		invocations = conc
	}
	params := netsim.Loopback()
	params.PropDelay = rtt / 2
	params.QueueLen = 4096
	sim := netsim.NewManager(params)

	server := orb.New(orb.WithName("pipe-server"), orb.WithTransport(sim))
	defer server.Shutdown()
	if _, err := server.ListenOn("netsim", "pipe-ep"); err != nil {
		return PipelineResult{}, err
	}
	ref, err := server.RegisterServant(echoServant{},
		orb.WithCapability(qos.Unconstrained()), orb.WithInlineDispatch())
	if err != nil {
		return PipelineResult{}, err
	}
	client := orb.New(orb.WithName("pipe-client"), orb.WithTransport(sim))
	defer client.Shutdown()

	payload := []byte("ping")
	seq := client.Resolve(ref)
	if err := Echo(seq, payload); err != nil {
		return PipelineResult{}, err
	}

	// Sequential baseline: one caller, invocations/conc calls (same
	// per-caller count as the pipelined run, so both sides spend the
	// same number of RTTs per goroutine).
	perCaller := invocations / conc
	seqStart := time.Now()
	for i := 0; i < perCaller; i++ {
		if err := Echo(seq, payload); err != nil {
			return PipelineResult{}, err
		}
	}
	seqElapsed := time.Since(seqStart)

	// Pipelined: conc callers, each its own proxy, sharing the single
	// cached connection.
	before := client.Metrics().Snapshot()
	proxies := make([]*orb.Object, conc)
	for i := range proxies {
		proxies[i] = client.Resolve(ref)
	}
	var wg sync.WaitGroup
	var firstErr atomic.Value
	pipeStart := time.Now()
	for _, p := range proxies {
		wg.Add(1)
		go func(obj *orb.Object) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if err := Echo(obj, payload); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	pipeElapsed := time.Since(pipeStart)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return PipelineResult{}, err
	}
	delta := client.Metrics().Snapshot().Delta(before)

	res := PipelineResult{
		RTTms:         rtt.Milliseconds(),
		Conc:          conc,
		Invocations:   perCaller * conc,
		SequentialRPS: float64(perCaller) / seqElapsed.Seconds(),
		PipelinedRPS:  float64(perCaller*conc) / pipeElapsed.Seconds(),
	}
	if res.SequentialRPS > 0 {
		res.Speedup = res.PipelinedRPS / res.SequentialRPS
	}
	if h, ok := delta.Histogram("orb.client.flush_batch"); ok {
		res.FlushBatchP99 = h.Quantile(0.99)
	}
	return res, nil
}
