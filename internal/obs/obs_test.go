package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from many goroutines —
// get-or-create races, increments, and concurrent snapshots — and checks
// the totals. Run with -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").Inc()
				r.Histogram("shared.hist", LatencyBuckets()).Observe(uint64(i % 64))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	// Concurrent snapshot reader.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot().Text()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	s := r.Snapshot()
	const total = workers * iters
	if got := s.Counter("shared.counter"); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := s.Gauge("shared.gauge"); got != total {
		t.Errorf("gauge = %d, want %d", got, total)
	}
	h, ok := s.Histogram("shared.hist")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if h.Count != total {
		t.Errorf("histogram count = %d, want %d", h.Count, total)
	}
	var sum uint64
	for _, b := range h.Buckets {
		sum += b
	}
	if sum != h.Count {
		t.Errorf("bucket sum %d != count %d", sum, h.Count)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]uint64{1, 2, 4, 8})
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 9, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 2, 2, 2} // (..1],(1,2],(2,4],(4,8],(8,+inf]
	p := h.snapshot("h")
	for i, b := range p.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, b, want[i])
		}
	}
	if p.Count != 9 {
		t.Errorf("count = %d, want 9", p.Count)
	}
	if p.Sum != 0+1+2+3+4+7+8+9+100 {
		t.Errorf("sum = %d", p.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]uint64{1, 2, 4, 8, 16})
	for i := 0; i < 100; i++ {
		h.Observe(3) // lands in (2,4]
	}
	p := h.snapshot("h")
	// All mass in (2,4]: p50 interpolates to the bucket midpoint, p99 near
	// the top — both stay inside the bucket.
	if q := p.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if q := p.Quantile(0.99); q < 3 || q > 4 {
		t.Errorf("p99 = %d, want within (2,4]", q)
	}
	h.Observe(1000) // overflow bucket
	p = h.snapshot("h")
	if q := p.Quantile(1.0); q != 16 {
		t.Errorf("p100 = %d, want 16 (capped at last bound)", q)
	}
	if (HistogramPoint{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}

	// Uniform spread across two buckets: the median splits them.
	u := NewHistogram([]uint64{10, 20})
	for i := 0; i < 50; i++ {
		u.Observe(5)  // (0,10]
		u.Observe(15) // (10,20]
	}
	up := u.snapshot("u")
	if q := up.Quantile(0.5); q != 10 {
		t.Errorf("uniform p50 = %d, want 10", q)
	}
	if q := up.Quantile(0.75); q != 15 {
		t.Errorf("uniform p75 = %d, want 15", q)
	}
}

// TestHistogramQuantileStaysInBucket pins the estimate inside the bucket
// that holds the rank: a histogram of 1s must not report 0, the lower
// bound of its (0,1] bucket.
func TestHistogramQuantileStaysInBucket(t *testing.T) {
	bounds := []uint64{1, 2, 4, 8, 16}
	ones := NewHistogram(bounds)
	for i := 0; i < 376; i++ {
		ones.Observe(1)
	}
	p := ones.snapshot("ones")
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := p.Quantile(q); got != 1 {
			t.Errorf("all-1s q%.2f = %d, want 1", q, got)
		}
	}
	threes := NewHistogram(bounds)
	for i := 0; i < 376; i++ {
		threes.Observe(3)
	}
	if got := threes.snapshot("threes").Quantile(0.5); got != 3 {
		t.Errorf("all-3s p50 = %d, want 3", got)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram([]uint64{1, 2, 4, 8, 16})
	h.ObserveTrace(3, TraceID(0xaaaa))   // (2,4]
	h.ObserveTrace(3, TraceID(0xbbbb))   // (2,4] — overwrites, most recent wins
	h.ObserveTrace(100, TraceID(0xcccc)) // overflow bucket
	h.ObserveTrace(1, 0)                 // zero trace: counted, no exemplar
	p := h.snapshot("h")
	if p.Count != 4 {
		t.Errorf("count = %d, want 4", p.Count)
	}
	if got := p.Exemplar(0.5); got != TraceID(0xbbbb) {
		t.Errorf("p50 exemplar = %s, want 000000000000bbbb", got)
	}
	if got := p.TailExemplar(); got != TraceID(0xcccc) {
		t.Errorf("tail exemplar = %s, want 000000000000cccc", got)
	}
	if (HistogramPoint{}).TailExemplar() != 0 || (HistogramPoint{}).Exemplar(0.5) != 0 {
		t.Error("empty histogram exemplars should be 0")
	}
	// The exposition renders the exemplar after its bucket.
	text := Snapshot{Histograms: []HistogramPoint{p}}.Text()
	if !strings.Contains(text, "(16,+inf]=1#000000000000cccc") {
		t.Errorf("text missing tail exemplar:\n%s", text)
	}
}

func TestExemplarObserveAllocs(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveTrace(37, TraceID(0xdead))
	})
	if allocs != 0 {
		t.Errorf("ObserveTrace allocates %.1f allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		h.ObserveDurationTrace(37*time.Microsecond, TraceID(0xbeef))
	})
	if allocs != 0 {
		t.Errorf("ObserveDurationTrace allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("calls")
	g := r.Gauge("active")
	h := r.Histogram("lat", []uint64{10, 20})

	c.Add(5)
	g.Set(2)
	h.Observe(5)
	prev := r.Snapshot()

	c.Add(3)
	g.Set(7)
	h.Observe(15)
	h.Observe(15)
	time.Sleep(2 * time.Millisecond)
	cur := r.Snapshot()

	d := cur.Delta(prev)
	if d.Interval <= 0 {
		t.Errorf("interval = %v, want > 0", d.Interval)
	}
	if got := d.Counter("calls"); got != 3 {
		t.Errorf("delta counter = %d, want 3", got)
	}
	if got := d.Gauge("active"); got != 7 {
		t.Errorf("delta gauge = %d, want 7 (level, not flow)", got)
	}
	dh, ok := d.Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from delta")
	}
	if dh.Count != 2 || dh.Sum != 30 {
		t.Errorf("delta hist count=%d sum=%d, want 2/30", dh.Count, dh.Sum)
	}
	if dh.Buckets[0] != 0 || dh.Buckets[1] != 2 {
		t.Errorf("delta buckets = %v, want [0 2 0]", dh.Buckets)
	}
	if rate := d.Rate("calls"); rate <= 0 {
		t.Errorf("rate = %f, want > 0", rate)
	}
	// A counter that went backwards (peer restart) keeps its full value.
	reset := Snapshot{Counters: []CounterPoint{{Name: "calls", Value: 1}}}
	d2 := reset.Delta(cur)
	if got := d2.Counter("calls"); got != 1 {
		t.Errorf("reset counter delta = %d, want full value 1", got)
	}
	// Rate on a non-delta snapshot is 0.
	if cur.Rate("calls") != 0 {
		t.Error("Rate on non-delta snapshot should be 0")
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	h.ObserveDuration(3 * time.Microsecond)
	h.ObserveDuration(-1 * time.Second) // clamped to 0
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
	if h.Sum() != 3 {
		t.Errorf("sum = %d, want 3", h.Sum())
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.counter").Add(7)
	r.Counter("a.counter").Inc()
	r.Gauge("g.active").Set(3)
	r.Histogram("lat_us", []uint64{1, 2, 4}).Observe(2)
	r.RegisterCollector(func(emit func(string, uint64)) {
		emit("derived.total", 42)
	})
	text := r.Snapshot().Text()
	for _, want := range []string{
		"a.counter 1\n",
		"b.counter 7\n",
		"derived.total 42\n",
		"g.active 3 gauge\n",
		"lat_us count=1 sum=2 p50=2 p95=2 p99=2 (1,2]=1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q:\n%s", want, text)
		}
	}
	// Sorted: a.counter before b.counter before derived.total.
	if strings.Index(text, "a.counter") > strings.Index(text, "b.counter") {
		t.Error("counters not sorted")
	}
}

func TestTracerIDs(t *testing.T) {
	tr := NewTracer()
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := tr.NewID()
		if id.IsZero() {
			t.Fatal("NewID returned zero")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		seen[id] = true
	}
	if s := TraceID(0xab).String(); s != "00000000000000ab" {
		t.Errorf("String() = %q", s)
	}
}

func TestSpanEmission(t *testing.T) {
	tr := NewTracer()
	// No observer: End must be a no-op, not a panic.
	tr.StartSpan("quiet").End("ok", "")
	if tr.Enabled() {
		t.Error("Enabled() true with no observer")
	}

	log := NewTraceLog(16)
	tr.SetObserver(log)
	if !tr.Enabled() {
		t.Error("Enabled() false with observer installed")
	}
	root := tr.StartSpan("parentOp")
	child := tr.StartChild(root.Trace, root.ID, "childOp")
	child.End("ok", "")
	root.End("error", "BAD_OPERATION")
	tr.Emit(Event{Kind: "qos.negotiation", Name: "bind", Outcome: "ack"})

	evs := log.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Name != "childOp" || evs[0].Trace != root.Trace || evs[0].Parent != root.ID {
		t.Errorf("child span wrong: %+v", evs[0])
	}
	if evs[1].Outcome != "error" || evs[1].Detail != "BAD_OPERATION" {
		t.Errorf("root span wrong: %+v", evs[1])
	}
	if evs[1].Dur <= 0 {
		t.Error("span duration not recorded")
	}
	if evs[2].Kind != "qos.negotiation" || evs[2].Time.IsZero() {
		t.Errorf("point event wrong: %+v", evs[2])
	}
}

func TestTraceLogRing(t *testing.T) {
	log := NewTraceLog(4)
	for i := 0; i < 6; i++ {
		log.Event(Event{Kind: "e", Trace: TraceID(i + 1)})
	}
	evs := log.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Trace != TraceID(i+3) { // oldest surviving is #3
			t.Errorf("event %d trace = %d, want %d", i, e.Trace, i+3)
		}
	}
	if NewTraceLog(0) == nil || len(NewTraceLog(-1).events) != DefaultTraceLogSize {
		t.Error("default size not applied")
	}
}

func TestTraceLogConcurrent(t *testing.T) {
	log := NewTraceLog(64)
	tr := NewTracer()
	tr.SetObserver(log)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.StartSpan("op").End("ok", "")
				_ = log.Events()
			}
		}()
	}
	wg.Wait()
	if len(log.Events()) != 64 {
		t.Errorf("ring should be full, got %d", len(log.Events()))
	}
}

func TestFanout(t *testing.T) {
	a := NewTraceLog(8)
	b := NewTraceLog(8)
	if Fanout() != nil || Fanout(nil, nil) != nil {
		t.Error("empty fanout should be nil")
	}
	if Fanout(a, nil) != Observer(a) {
		t.Error("single-element fanout should collapse")
	}
	f := Fanout(a, b)
	f.Event(Event{Kind: "x"})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Error("fanout did not reach both observers")
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Kind: "span", Name: "echo",
		Trace: 1, Span: 2, Parent: 3,
		Dur: time.Millisecond, Outcome: "ok", Detail: "d",
	}
	s := e.String()
	for _, want := range []string{"span echo", "trace=0000000000000001", "span=0000000000000002", "parent=0000000000000003", "outcome=ok", "detail=d"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() missing %q: %s", want, s)
		}
	}
}
