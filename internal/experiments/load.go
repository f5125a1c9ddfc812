package experiments

// E11 — connection multiplexing at scale. The harness drives the echo
// servant with thousands of concurrent goroutine clients in two modes:
//
//   - closed loop: Conc callers each issue the next request as soon as
//     the previous reply lands. Throughput is offered-load-coupled, the
//     classic benchmark shape.
//   - open loop: arrivals are paced at RatePerSec independently of
//     completions (up to an outstanding cap that keeps an overloaded
//     target from accumulating unbounded goroutines). Latency percentiles
//     from an open-loop run include queueing delay and are the honest
//     tail numbers.
//
// Percentiles are not sampled by the harness: they are read from the
// client ORB's own orb.client.latency_us histogram via a snapshot delta,
// so the measurement path is the production observability path.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
)

// LoadOptions configures one load-harness run.
type LoadOptions struct {
	// Transport is the listening scheme ("tcp", "inproc"); default tcp.
	Transport string
	// Conc is the number of concurrent closed-loop callers (each a
	// goroutine with its own proxy). In open-loop mode it caps the
	// outstanding invocations instead.
	Conc int
	// Payload is the echo payload size in octets.
	Payload int
	// Duration is the measurement window (after warmup).
	Duration time.Duration
	// Warmup is run before the window to let bindings and pools settle;
	// defaults to min(Duration/4, 2s).
	Warmup time.Duration
	// RatePerSec switches to open-loop mode: arrivals are generated at
	// this rate regardless of completions. 0 selects closed loop.
	RatePerSec int
}

// LoadResult is one load-harness measurement.
type LoadResult struct {
	Mode       string  `json:"mode"` // "closed" | "open"
	Transport  string  `json:"transport"`
	Conc       int     `json:"conc"`
	Payload    int     `json:"payload_b"`
	DurationMS int64   `json:"duration_ms"`
	Requests   uint64  `json:"requests"`
	Errors     uint64  `json:"errors"`
	Dropped    uint64  `json:"dropped"` // open loop: arrivals over the outstanding cap
	Throughput float64 `json:"rps"`

	// Latency percentiles (µs) from orb.client.latency_us{op=echo}.
	P50us uint64 `json:"p50_us"`
	P95us uint64 `json:"p95_us"`
	P99us uint64 `json:"p99_us"`

	// Flush coalescing evidence: mean and p99 frames-per-writev on the
	// client connections, and the p99 flow-control admission wait.
	FlushBatchMean float64 `json:"flush_batch_mean"`
	FlushBatchP99  uint64  `json:"flush_batch_p99"`
	FlowWaitP99us  uint64  `json:"flow_wait_p99_us"`
}

func (o *LoadOptions) withDefaults() LoadOptions {
	opts := *o
	if opts.Transport == "" {
		opts.Transport = "tcp"
	}
	if opts.Conc <= 0 {
		opts.Conc = 1
	}
	if opts.Payload < 0 {
		opts.Payload = 0
	}
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Second
	}
	if opts.Warmup <= 0 {
		opts.Warmup = opts.Duration / 4
		if opts.Warmup > 2*time.Second {
			opts.Warmup = 2 * time.Second
		}
	}
	return opts
}

// RunLoad runs the load harness once and reports the measurement.
func RunLoad(o LoadOptions) (LoadResult, error) {
	opts := o.withDefaults()

	server := orb.New(orb.WithName("load-server"))
	defer server.Shutdown()
	if _, err := server.ListenOn(opts.Transport, ""); err != nil {
		return LoadResult{}, err
	}
	// Default (concurrent) dispatch, not WithInlineDispatch: the load
	// harness wants the server replying from many goroutines so the
	// client side sees bursty completions — the shape that exercises
	// write coalescing and flow control.
	ref, err := server.RegisterServant(echoServant{},
		orb.WithCapability(qos.Unconstrained()))
	if err != nil {
		return LoadResult{}, err
	}
	client := orb.New(orb.WithName("load-client"))
	defer client.Shutdown()

	// One proxy per caller: bindings are per-proxy, so callers do not
	// serialize on a shared proxy mutex and the connection cache (with
	// its striping) is what distributes the load.
	nproxies := opts.Conc
	proxies := make([]*orb.Object, nproxies)
	for i := range proxies {
		proxies[i] = client.Resolve(ref)
	}
	payload := make([]byte, opts.Payload)

	var requests, errors, dropped atomic.Uint64
	run := func(stop <-chan struct{}) {
		if opts.RatePerSec > 0 {
			runOpenLoop(proxies, payload, opts.RatePerSec, stop, &requests, &errors, &dropped)
		} else {
			runClosedLoop(proxies, payload, stop, &requests, &errors)
		}
	}

	// Warmup round: establish every binding once, then run the loop
	// briefly so pools and flush paths reach steady state.
	for _, p := range proxies {
		if err := Echo(p, payload); err != nil {
			return LoadResult{}, fmt.Errorf("experiments: load warmup: %w", err)
		}
	}
	warm := make(chan struct{})
	var warmWG sync.WaitGroup
	warmWG.Add(1)
	go func() { defer warmWG.Done(); run(warm) }()
	time.Sleep(opts.Warmup)
	close(warm)
	warmWG.Wait()

	// Measurement window, bracketed by metric snapshots.
	requests.Store(0)
	errors.Store(0)
	dropped.Store(0)
	before := client.Metrics().Snapshot()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); run(stop) }()
	start := time.Now()
	time.Sleep(opts.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	delta := client.Metrics().Snapshot().Delta(before)

	res := LoadResult{
		Mode:       "closed",
		Transport:  opts.Transport,
		Conc:       opts.Conc,
		Payload:    opts.Payload,
		DurationMS: elapsed.Milliseconds(),
		Requests:   requests.Load(),
		Errors:     errors.Load(),
		Dropped:    dropped.Load(),
		Throughput: float64(requests.Load()) / elapsed.Seconds(),
	}
	if opts.RatePerSec > 0 {
		res.Mode = "open"
	}
	if h, ok := delta.Histogram("orb.client.latency_us{op=echo}"); ok {
		res.P50us = h.Quantile(0.50)
		res.P95us = h.Quantile(0.95)
		res.P99us = h.Quantile(0.99)
	}
	if h, ok := delta.Histogram("orb.client.flush_batch"); ok && h.Count > 0 {
		res.FlushBatchMean = float64(h.Sum) / float64(h.Count)
		res.FlushBatchP99 = h.Quantile(0.99)
	}
	if h, ok := delta.Histogram("orb.client.flow_control_wait_us"); ok {
		res.FlowWaitP99us = h.Quantile(0.99)
	}
	return res, nil
}

// runClosedLoop drives one goroutine per proxy, each re-invoking as soon
// as its previous call returns, until stop closes.
func runClosedLoop(proxies []*orb.Object, payload []byte, stop <-chan struct{}, requests, errors *atomic.Uint64) {
	var wg sync.WaitGroup
	for _, p := range proxies {
		wg.Add(1)
		go func(obj *orb.Object) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := Echo(obj, payload); err != nil {
					errors.Add(1)
				} else {
					requests.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
}

// runOpenLoop paces arrivals at rate/s. Each arrival claims an
// outstanding slot (bounded by len(proxies)) and invokes on its own
// goroutine; arrivals that find every slot busy are counted as dropped
// rather than queued, so the arrival process stays independent of
// service times.
func runOpenLoop(proxies []*orb.Object, payload []byte, rate int, stop <-chan struct{}, requests, errors, dropped *atomic.Uint64) {
	type slotted struct{ obj *orb.Object }
	slots := make(chan slotted, len(proxies))
	for _, p := range proxies {
		slots <- slotted{obj: p}
	}
	var wg sync.WaitGroup
	defer wg.Wait()

	// Coarse pacing: a 1ms tick releases the arrivals accumulated since
	// the previous tick, which keeps timer pressure independent of the
	// rate while preserving the average.
	const tick = time.Millisecond
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	start := time.Now()
	var issued uint64
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			due := uint64(float64(rate) * now.Sub(start).Seconds())
			for ; issued < due; issued++ {
				select {
				case s := <-slots:
					wg.Add(1)
					go func(s slotted) {
						defer wg.Done()
						if err := Echo(s.obj, payload); err != nil {
							errors.Add(1)
						} else {
							requests.Add(1)
						}
						slots <- s
					}(s)
				default:
					dropped.Add(1)
				}
			}
		}
	}
}

// PipelineResult is the E10 measurement: sequential vs pipelined
// invocation throughput over a high-RTT simulated link.
type PipelineResult struct {
	RTTms          int64   `json:"rtt_ms"`
	Conc           int     `json:"conc"`
	Invocations    int     `json:"invocations"`
	SequentialRPS  float64 `json:"sequential_rps"`
	PipelinedRPS   float64 `json:"pipelined_rps"`
	Speedup        float64 `json:"speedup"`
	FlushBatchP99  uint64  `json:"flush_batch_p99"`
	SequentialSecs float64 `json:"sequential_s"`
	PipelinedSecs  float64 `json:"pipelined_s"`
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
		RTTms:          rtt.Milliseconds(),
		Conc:           conc,
		Invocations:    perCaller * conc,
		SequentialRPS:  float64(perCaller) / seqElapsed.Seconds(),
		PipelinedRPS:   float64(perCaller*conc) / pipeElapsed.Seconds(),
		SequentialSecs: seqElapsed.Seconds(),
		PipelinedSecs:  pipeElapsed.Seconds(),
	}
	if res.SequentialRPS > 0 {
		res.Speedup = res.PipelinedRPS / res.SequentialRPS
	}
	if h, ok := delta.Histogram("orb.client.flush_batch"); ok {
		res.FlushBatchP99 = h.Quantile(0.99)
	}
	return res, nil
}
