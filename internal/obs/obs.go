// Package obs is the observability substrate of the COOL reproduction: a
// dependency-free metrics and tracing core shared by every layer of the
// stack (client proxy, server loop, GIOP message layer, generic transport
// layer, Da CaPo).
//
// The metrics side follows the exported-registry pattern: each ORB owns a
// Registry; instrumented code asks it for named Counters, Gauges and
// fixed-bucket Histograms once and then updates them with plain atomics, so
// the hot path costs a handful of uncontended atomic adds. Snapshot freezes
// a consistent view for reporting; WriteText renders the exposition format
// documented in README.md ("Observability").
//
// Metric names are flat strings; by convention labels are appended in
// braces, e.g. "orb.client.calls{op=echo}". The package does not parse
// them — they only shape the snapshot output.
//
// The tracing side (trace.go) is a lightweight span tracer with an Observer
// hook per Tracer; trace identifiers travel across processes in a GIOP
// service context (see internal/giop.TraceContext).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can move both ways (e.g. active connections).
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: observations are counted into the
// bucket whose upper bound is the first bound >= value, with one implicit
// overflow bucket above the last bound. Bounds are set at creation and
// never change, so observation is lock-free.
//
// Each bucket additionally carries one exemplar slot: the trace ID of the
// most recent observation that landed in it (see ObserveTrace). The slot is
// a single atomic store on the hot path and lets a reader follow a tail
// bucket — a p99 outlier — back to a concrete trace in a TraceLog.
type Histogram struct {
	bounds    []uint64
	buckets   []atomic.Uint64 // len(bounds)+1, last = overflow
	exemplars []atomic.Uint64 // trace ID per bucket; 0 = none recorded
	count     atomic.Uint64
	sum       atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:    b,
		buckets:   make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Uint64, len(b)+1),
	}
}

// LatencyBuckets are the standard bounds for latency histograms: powers of
// two in microseconds from 1 µs to ~8.4 s (23 bounds + overflow).
func LatencyBuckets() []uint64 {
	bounds := make([]uint64, 23)
	for i := range bounds {
		bounds[i] = 1 << i
	}
	return bounds
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v }) //coollint:allocok sort.Search predicate does not escape; stack-allocated
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveTrace records one value and stamps the bucket's exemplar slot with
// the trace ID (skipped when trace is zero, e.g. no observer installed so
// no trace context was minted into the log). Zero allocations: a binary
// search, three atomic adds and one atomic store.
func (h *Histogram) ObserveTrace(v uint64, trace TraceID) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v }) //coollint:allocok sort.Search predicate does not escape; stack-allocated
	h.buckets[i].Add(1)
	if trace != 0 {
		h.exemplars[i].Store(uint64(trace))
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in microseconds (sub-microsecond
// durations land in the first bucket).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d / time.Microsecond))
}

// ObserveDurationTrace is ObserveDuration with an exemplar trace ID.
func (h *Histogram) ObserveDurationTrace(d time.Duration, trace TraceID) {
	if d < 0 {
		d = 0
	}
	h.ObserveTrace(uint64(d/time.Microsecond), trace)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// snapshot freezes the histogram state.
func (h *Histogram) snapshot(name string) HistogramPoint {
	p := HistogramPoint{
		Name:      name,
		Bounds:    h.bounds,
		Buckets:   make([]uint64, len(h.buckets)),
		Exemplars: make([]uint64, len(h.exemplars)),
	}
	for i := range h.buckets {
		p.Buckets[i] = h.buckets[i].Load()
		p.Exemplars[i] = h.exemplars[i].Load()
	}
	p.Count = h.count.Load()
	p.Sum = h.sum.Load()
	return p
}

// CollectorFunc supplies derived counter values at snapshot time (e.g. the
// Da CaPo manager aggregating per-module packet counts over live
// connections). It must call emit once per metric.
type CollectorFunc func(emit func(name string, value uint64))

// Registry is the per-ORB metric registry. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []CollectorFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the histogram with the given name.
// The bounds are only used at creation; later callers get the existing
// instance regardless of the bounds they pass.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// RegisterCollector adds a snapshot-time collector.
func (r *Registry) RegisterCollector(f CollectorFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, f)
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string
	Value uint64
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string
	Value int64
}

// HistogramPoint is one histogram in a snapshot.
type HistogramPoint struct {
	Name    string
	Bounds  []uint64
	Buckets []uint64 // len(Bounds)+1, last = overflow
	// Exemplars holds the most recent trace ID observed per bucket (0 =
	// none); nil in snapshots predating exemplar support (e.g. decoded from
	// an older peer).
	Exemplars []uint64
	Count     uint64
	Sum       uint64
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket containing the target rank: a bucket (lo, hi] holding
// the rank contributes lo + ⌈fraction·(hi−lo)⌉, which stays inside the
// bucket. Observations in the overflow bucket report the last bound (the
// histogram cannot resolve beyond it).
func (p HistogramPoint) Quantile(q float64) uint64 {
	if len(p.Bounds) == 0 {
		return 0
	}
	i, below, rank := p.rankBucket(q)
	switch {
	case i < 0:
		return 0
	case i >= len(p.Bounds):
		return p.Bounds[len(p.Bounds)-1]
	}
	var lo uint64
	if i > 0 {
		lo = p.Bounds[i-1]
	}
	frac := (rank - float64(below)) / float64(p.Buckets[i])
	return lo + uint64(math.Ceil(frac*float64(p.Bounds[i]-lo)))
}

// Exemplar returns the trace ID recorded for the bucket containing the
// q-quantile (zero when none was recorded there).
func (p HistogramPoint) Exemplar(q float64) TraceID {
	i, _, _ := p.rankBucket(q)
	if i < 0 || i >= len(p.Exemplars) {
		return 0
	}
	return TraceID(p.Exemplars[i])
}

// rankBucket finds the bucket holding the q-quantile's rank (at least 1):
// its index, the count of observations below it, and the rank. The index
// is -1 for an empty histogram and len(p.Buckets) when the buckets hold
// fewer observations than Count.
func (p HistogramPoint) rankBucket(q float64) (i int, below uint64, rank float64) {
	if p.Count == 0 {
		return -1, 0, 0
	}
	rank = max(q*float64(p.Count), 1)
	for j, b := range p.Buckets {
		if b > 0 && float64(below+b) >= rank {
			return j, below, rank
		}
		below += b
	}
	return len(p.Buckets), below, rank
}

// TailExemplar returns the exemplar of the highest occupied bucket that
// recorded one — the trace behind the worst observed latencies. Zero when
// no exemplar was recorded at all.
func (p HistogramPoint) TailExemplar() TraceID {
	for i := len(p.Exemplars) - 1; i >= 0; i-- {
		if i < len(p.Buckets) && p.Buckets[i] > 0 && p.Exemplars[i] != 0 {
			return TraceID(p.Exemplars[i])
		}
	}
	return 0
}

// Snapshot is a frozen, sorted view of a registry.
type Snapshot struct {
	// Time is when the snapshot was taken; Delta uses it to derive rates.
	Time time.Time
	// Interval is non-zero only on snapshots produced by Delta: the time
	// between the two source snapshots.
	Interval time.Duration

	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
}

// Snapshot freezes the registry, including collector-derived counters.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	s := Snapshot{Time: time.Now()}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.Load()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	collectors := r.collectors
	r.mu.RUnlock()
	// Collectors run outside the registry lock: they may take their own
	// locks (e.g. the Da CaPo manager's connection table).
	for _, f := range collectors {
		f(func(name string, value uint64) {
			s.Counters = append(s.Counters, CounterPoint{Name: name, Value: value})
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the value of a named counter in the snapshot (0 when
// absent).
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the value of a named gauge in the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns a named histogram point from the snapshot.
func (s Snapshot) Histogram(name string) (HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramPoint{}, false
}

// Delta returns the change from prev to s: counter values and histogram
// buckets/count/sum are subtracted point-wise (metrics absent from prev
// carry their full value; a value that went backwards — a restarted peer —
// is treated as absent). Gauges are levels, not flows, and keep their
// current value; histogram exemplars keep the current (most recent) trace
// IDs. Interval is set to the time between the snapshots, which makes
// Rate usable on the result.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Time:     s.Time,
		Interval: s.Time.Sub(prev.Time),
		Gauges:   s.Gauges,
	}
	prevCounters := make(map[string]uint64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevCounters[c.Name] = c.Value
	}
	for _, c := range s.Counters {
		if p, ok := prevCounters[c.Name]; ok && p <= c.Value {
			c.Value -= p
		}
		d.Counters = append(d.Counters, c)
	}
	prevHists := make(map[string]HistogramPoint, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevHists[h.Name] = h
	}
	for _, h := range s.Histograms {
		p, ok := prevHists[h.Name]
		if !ok || p.Count > h.Count || len(p.Buckets) != len(h.Buckets) {
			d.Histograms = append(d.Histograms, h)
			continue
		}
		dh := HistogramPoint{
			Name:      h.Name,
			Bounds:    h.Bounds,
			Buckets:   make([]uint64, len(h.Buckets)),
			Exemplars: h.Exemplars,
			Count:     h.Count - p.Count,
			Sum:       h.Sum - p.Sum,
		}
		for i := range h.Buckets {
			dh.Buckets[i] = h.Buckets[i] - p.Buckets[i]
		}
		d.Histograms = append(d.Histograms, dh)
	}
	return d
}

// Rate returns a named counter's per-second rate in a Delta snapshot
// (0 when the snapshot has no interval or the counter is absent).
func (s Snapshot) Rate(name string) float64 {
	if s.Interval <= 0 {
		return 0
	}
	return float64(s.Counter(name)) / s.Interval.Seconds()
}

// WriteText renders the snapshot in the text exposition format: one line
// per metric, counters first, then gauges, then histograms with count, sum,
// interpolated p50/p95/p99 estimates and the non-empty buckets. A bucket
// that recorded an exemplar renders it as `#<trace-id>` after its count, so
// a tail bucket links directly to a trace. Delta snapshots additionally
// render per-second counter rates and lead with the interval.
func (s Snapshot) WriteText(w io.Writer) {
	if s.Interval > 0 {
		fmt.Fprintf(w, "interval %v\n", s.Interval)
	}
	for _, c := range s.Counters {
		if s.Interval > 0 {
			fmt.Fprintf(w, "%s %d rate=%.1f/s\n", c.Name, c.Value, float64(c.Value)/s.Interval.Seconds())
			continue
		}
		fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "%s %d gauge\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "%s count=%d sum=%d p50=%d p95=%d p99=%d", h.Name, h.Count, h.Sum,
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		var prev uint64
		for i, b := range h.Buckets {
			if b == 0 {
				if i < len(h.Bounds) {
					prev = h.Bounds[i]
				}
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(w, " (%d,%d]=%d", prev, h.Bounds[i], b)
				prev = h.Bounds[i]
			} else {
				fmt.Fprintf(w, " (%d,+inf]=%d", prev, b)
			}
			if i < len(h.Exemplars) && h.Exemplars[i] != 0 {
				fmt.Fprintf(w, "#%016x", h.Exemplars[i])
			}
		}
		fmt.Fprintln(w)
	}
}

// Text returns WriteText as a string.
func (s Snapshot) Text() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}
