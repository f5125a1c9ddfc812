package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Load sizing, identical on every commit (see README "Method").
const (
	defaultSetups = 1000            // cold set-up/tear-down cycles; setup_s is their median
	defaultWarmup = 2 * time.Second // closed loops run unmeasured this long first
	defaultSlice  = time.Second     // rates are the median over slices of this length
	minSlices     = 5
)

// config is one run's sizing. The command line sets seed, slices and
// trace; the smoke test shrinks the rest.
type config struct {
	seed   uint64
	slices int
	slice  time.Duration
	warmup time.Duration
	setups int
	trace  bool
	outDir string // where a traced run writes trace.json
	probes probeSizing
	// fullSize turns on the validity checks that need the full load.
	fullSize bool
}

// clockBase is the harness's monotonic time base: every stamp is
// nanoseconds since the process started.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// timerCost is harness.timer_ns: what one read of the harness's clock
// costs.
func timerCost() float64 {
	return perIter(fullProbes.rounds, fullProbes.calls, func(n int) {
		for i := 0; i < n; i++ {
			now()
		}
	})
}

// sample is one completed, verified unit of work: when it completed, how
// long the caller waited for it, and how many operations it stands for (1
// for a closed-loop call; a stream receiver checkpoints every few
// messages).
type sample struct {
	end int64
	lat int32
	ops int32
}

// recorder collects one goroutine's samples. It is written by exactly one
// goroutine while the workload runs and read after that goroutine exits.
type recorder struct {
	samples []sample
	failed  int64
	why     string // first failure, for the report
}

// harnessAlloc counts what the recorders themselves allocate, so a traced
// run can take it out of the program's allocation per operation.
var harnessAlloc struct{ mallocs, bytes atomic.Int64 }

func (r *recorder) add(end, lat int64, ops int) {
	if lat > math.MaxInt32 {
		lat = math.MaxInt32
	}
	if len(r.samples) == cap(r.samples) {
		grown := make([]sample, len(r.samples), max(1<<16, 2*cap(r.samples)))
		copy(grown, r.samples)
		r.samples = grown
		harnessAlloc.mallocs.Add(1)
		harnessAlloc.bytes.Add(int64(cap(grown)) * int64(unsafe.Sizeof(sample{})))
	}
	r.samples = append(r.samples, sample{end: end, lat: int32(lat), ops: int32(ops)})
}

func (r *recorder) fail(format string, a ...any) {
	if r.failed == 0 {
		r.why = fmt.Sprintf(format, a...)
	}
	r.failed++
}

// run is what a workload instance is given while it executes: the stop
// flag it polls and one recorder per goroutine that completes operations.
type run struct {
	stop atomic.Bool
	recs []*recorder
}

// instance is a workload set up and ready: the cold set-up has built it and
// seen one verified reply.
type instance interface {
	// drive executes the workload until r.stop is set, then returns once
	// every goroutine it started has exited.
	drive(r *run)
	// finish reports the per-layer numbers the instance can read off
	// itself after drive, and checks the workload-validity assertions: an
	// error means the workload did not exercise its mechanism.
	finish(lr layerReport) error
	// spans returns what the traced slices recorded.
	spans() []span
	close() error
}

// looper is the closed-loop shape shared by every workload except the
// streams: callers goroutines, each issuing one synchronous verified
// operation after the other.
type looper interface {
	callers() int
	// prepare runs before each operation, outside the timed span.
	prepare(caller int, seq uint64) error
	// op performs operation seq of the given caller and verifies its
	// output. traced asks it to stamp its spans.
	op(caller int, seq uint64, traced bool) error
}

// driveLoop runs a looper's callers until stop.
func driveLoop(l looper, r *run) {
	var wg sync.WaitGroup
	for c := 0; c < l.callers(); c++ {
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			for seq := uint64(0); !r.stop.Load(); seq++ {
				if err := l.prepare(c, seq); err != nil {
					rec.fail("caller %d prepare %d: %v", c, seq, err)
					return
				}
				traced := tracing.Load()
				t0 := now()
				err := l.op(c, seq, traced)
				t1 := now()
				if err != nil {
					rec.fail("caller %d op %d: %v", c, seq, err)
					continue
				}
				rec.add(t1, t1-t0, 1)
			}
		}(c, r.recs[c])
	}
	wg.Wait()
}

// measured is what one run of one workload produced.
type measured struct {
	setupS    float64
	untraced  window // every slice of an untraced run; the even slices of a traced one
	traced    window // the odd slices of a traced run
	attempted int64
	failed    int64
	why       string
	mallocs   float64 // per operation over the measured window (traced runs only)
	bytes     float64
	spans     []span
}

// window summarises a set of slices.
type window struct {
	rates    []float64 // operations per second, slice by slice
	opsPerS  float64   // median slice
	p50, p99 float64   // ns, the median slice's
	n        int       // latency samples in all slices
}

// coldCycles times n set-up/tear-down cycles of the workload, after skip
// untimed ones.
func coldCycles(w *workload, cfg *config, skip, n int) ([]float64, error) {
	cycles := make([]float64, 0, n)
	for i := -skip; i < n; i++ {
		t0 := now()
		inst, err := w.start(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up cycle: %w", err)
		}
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("tear-down cycle: %w", err)
		}
		if i >= 0 {
			cycles = append(cycles, float64(now()-t0)/1e9)
		}
	}
	return cycles, nil
}

// measure performs the whole method on one workload: cold cycles, one kept
// instance, warm-up, slices, the instance's own report, cold cycles again.
//
// A cold cycle takes 0.02 to 0.5 ms, most of it waking threads, and how
// often a thread has to be woken drifts over seconds with whatever else the
// host runs. Half the cycles therefore run before the workload and half
// after it, a tenth as many untimed ones first, and setup_s is the median of
// them all.
func measure(w *workload, cfg *config, lr layerReport) (*measured, error) {
	m := &measured{}
	cycles, err := coldCycles(w, cfg, cfg.setups/10, cfg.setups/2)
	if err != nil {
		return nil, err
	}

	inst, err := w.start(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Every cold cycle and this set-up saw one verified reply.
	m.attempted = int64(cfg.setups/10 + cfg.setups/2*2 + 1)

	r := &run{}
	for i := 0; i < w.recorders; i++ {
		r.recs = append(r.recs, &recorder{})
	}
	done := make(chan struct{})
	go func() {
		inst.drive(r)
		close(done)
	}()

	time.Sleep(cfg.warmup)
	total := time.Duration(cfg.slices) * cfg.slice
	var ms0, ms1 runtime.MemStats
	var own0, ownBytes0 int64
	if cfg.trace {
		own0, ownBytes0 = harnessAlloc.mallocs.Load(), harnessAlloc.bytes.Load()
		runtime.ReadMemStats(&ms0)
	}
	start := now()
	for s := 0; s < cfg.slices; s++ {
		tracing.Store(cfg.trace && s%2 == 1)
		time.Sleep(time.Duration(start+int64(s+1)*int64(cfg.slice)-now()) * time.Nanosecond)
	}
	tracing.Store(false)
	end := start + int64(total)
	if cfg.trace {
		runtime.ReadMemStats(&ms1)
	}
	r.stop.Store(true)
	<-done

	var ops int64
	for _, rec := range r.recs {
		m.failed += rec.failed
		if m.why == "" {
			m.why = rec.why
		}
		for _, s := range rec.samples {
			m.attempted += int64(s.ops)
			if s.end > start && s.end <= end {
				ops += int64(s.ops)
			}
		}
	}
	m.attempted += m.failed
	if cfg.trace {
		m.untraced = summarise(r.recs, start, cfg, 0, 2)
		m.traced = summarise(r.recs, start, cfg, 1, 2)
		if ops > 0 {
			own, ownBytes := harnessAlloc.mallocs.Load()-own0, harnessAlloc.bytes.Load()-ownBytes0
			m.mallocs = float64(int64(ms1.Mallocs-ms0.Mallocs)-own) / float64(ops)
			m.bytes = float64(int64(ms1.TotalAlloc-ms0.TotalAlloc)-ownBytes) / float64(ops)
		}
	} else {
		m.untraced = summarise(r.recs, start, cfg, 0, 1)
	}

	err = inst.finish(lr)
	m.spans = inst.spans()
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("workload validity: %w", err)
	}
	after, err := coldCycles(w, cfg, 0, cfg.setups/2)
	if err != nil {
		return nil, err
	}
	m.setupS = median(append(cycles, after...))
	return m, nil
}

// summarise reduces the slices first, first+step, … of the measured window
// that began at start.
func summarise(recs []*recorder, start int64, cfg *config, first, step int) window {
	counts := make([]float64, cfg.slices)
	lats := make([][]float64, cfg.slices)
	for _, rec := range recs {
		for _, s := range rec.samples {
			if s.end <= start {
				continue
			}
			i := int((s.end - start - 1) / int64(cfg.slice))
			if i >= cfg.slices || i%step != first%step {
				continue
			}
			counts[i] += float64(s.ops)
			lats[i] = append(lats[i], float64(s.lat))
		}
	}
	var w window
	var p50s, p99s []float64
	for i := first; i < cfg.slices; i += step {
		w.rates = append(w.rates, counts[i]/cfg.slice.Seconds())
		sort.Float64s(lats[i])
		p50s = append(p50s, quantileSorted(lats[i], 0.50))
		p99s = append(p99s, quantileSorted(lats[i], 0.99))
		w.n += len(lats[i])
	}
	w.opsPerS, w.p50, w.p99 = median(w.rates), median(p50s), median(p99s)
	return w
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted interpolates linearly between the two nearest ranks.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// perIter times f, which performs n iterations, rounds times, and returns
// the median nanoseconds per iteration. The isolated layer probes use it.
func perIter(rounds, n int, f func(n int)) float64 {
	f(n) // warm caches and pools
	per := make([]float64, rounds)
	for i := range per {
		t0 := now()
		f(n)
		per[i] = float64(now()-t0) / float64(n)
	}
	return median(per)
}
