package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// BenchmarkExemplarObserve is the microbenchmark behind the 0 allocs/op
// budget asserted by TestExemplarObserveAllocs (and, at the ORB level, by
// BenchmarkObsOverhead): exemplar recording must stay a binary search plus
// atomics.
func BenchmarkExemplarObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveTrace(uint64(i&1023), TraceID(i+1))
	}
}

func TestTraceLogDropped(t *testing.T) {
	log := NewTraceLog(4)
	r := NewRegistry()
	log.SetDroppedCounter(r.Counter("obs.tracelog.dropped"))
	for i := 0; i < 6; i++ {
		log.Event(Event{Kind: "e", Trace: TraceID(i + 1)})
	}
	if got := log.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
	if got := r.Snapshot().Counter("obs.tracelog.dropped"); got != 2 {
		t.Errorf("registry counter = %d, want 2", got)
	}
	if s := log.String(); !strings.Contains(s, "(2 older events dropped by the ring)") {
		t.Errorf("String() missing dropped banner:\n%s", s)
	}
	// No eviction yet → no banner.
	fresh := NewTraceLog(4)
	fresh.Event(Event{Kind: "e"})
	if strings.Contains(fresh.String(), "dropped") {
		t.Error("fresh log should not report drops")
	}
}

func TestSlowLog(t *testing.T) {
	l := NewSlowLog(2)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		l.Record(SlowCall{
			Time: base.Add(time.Duration(i) * time.Second), Side: "client",
			Op: fmt.Sprintf("op%d", i), Peer: "tcp://h:1", QoS: "latency=1ms",
			Bound: time.Millisecond, Dur: 2 * time.Millisecond, Trace: TraceID(i + 1),
		})
	}
	if l.Total() != 3 {
		t.Errorf("Total() = %d, want 3", l.Total())
	}
	calls := l.Calls()
	if len(calls) != 2 {
		t.Fatalf("retained %d calls, want 2", len(calls))
	}
	if calls[0].Op != "op1" || calls[1].Op != "op2" {
		t.Errorf("oldest-first order wrong: %s, %s", calls[0].Op, calls[1].Op)
	}
	s := l.String()
	for _, want := range []string{
		"(1 older slow calls evicted by the ring)",
		"client op2 dur=2ms bound=1ms trace=0000000000000003 peer=tcp://h:1 qos=latency=1ms",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	if NewSlowLog(0) == nil || len(NewSlowLog(-1).calls) != DefaultSlowLogSize {
		t.Error("default size not applied")
	}
}

func TestOpsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("orb.client.calls{op=echo}").Add(9)
	r.Histogram("orb.client.latency_us{op=echo}", LatencyBuckets()).
		ObserveTrace(300, TraceID(0xfeed))
	log := NewTraceLog(16)
	tr := NewTracer()
	tr.SetObserver(log)
	span := tr.StartChild(TraceID(0xfeed), 0, "echo")
	span.End("ok", "")
	tr.StartSpan("other").End("ok", "")
	slow := NewSlowLog(8)
	slow.Record(SlowCall{Side: "server", Op: "echo", Dur: time.Millisecond, Bound: time.Microsecond, Trace: 0xfeed})

	srv := httptest.NewServer(Ops{Registry: r, Trace: log, Slow: slow}.Handler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"orb.client.calls{op=echo} 9",
		"#000000000000feed", // the exemplar
		"runtime.goroutines",
		"runtime.heap_alloc_bytes",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	filtered := get("/metrics?prefix=runtime.")
	if strings.Contains(filtered, "orb.client.calls") {
		t.Errorf("/metrics?prefix=runtime. leaked orb metrics:\n%s", filtered)
	}
	if !strings.Contains(filtered, "runtime.goroutines") {
		t.Errorf("/metrics?prefix=runtime. missing runtime gauges:\n%s", filtered)
	}

	trace := get("/trace")
	if !strings.Contains(trace, "span echo") || !strings.Contains(trace, "span other") {
		t.Errorf("/trace missing spans:\n%s", trace)
	}

	// Exemplar lookup: the trace ID from the histogram resolves to its span.
	one := get("/trace?trace=000000000000feed")
	if !strings.Contains(one, "span echo") {
		t.Errorf("/trace?trace= did not resolve exemplar:\n%s", one)
	}
	if strings.Contains(one, "span other") {
		t.Errorf("/trace?trace= did not filter:\n%s", one)
	}
	if miss := get("/trace?trace=0000000000000042"); !strings.Contains(miss, "no retained events") {
		t.Errorf("/trace miss not reported:\n%s", miss)
	}

	slowText := get("/trace/slow")
	if !strings.Contains(slowText, "server echo") {
		t.Errorf("/trace/slow missing record:\n%s", slowText)
	}

	// An installed-but-empty slow log says so rather than serving nothing.
	empty := httptest.NewServer(Ops{Registry: r, Slow: NewSlowLog(4)}.Handler())
	defer empty.Close()
	resp2, err := empty.Client().Get(empty.URL + "/trace/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body2), "no slow calls recorded") {
		t.Errorf("empty slow log not reported:\n%s", body2)
	}

	if idx := get("/"); !strings.Contains(idx, "/metrics\n") || !strings.Contains(idx, "/metrics?format=json\n") {
		t.Errorf("index missing endpoint listing:\n%s", idx)
	}
	if pp := get("/debug/pprof/"); !strings.Contains(pp, "goroutine") {
		t.Errorf("pprof index not wired:\n%s", pp)
	}

	// Nil trace/slow degrade gracefully.
	bare := httptest.NewServer(Ops{Registry: r}.Handler())
	defer bare.Close()
	resp, err := bare.Client().Get(bare.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "no trace log") {
		t.Errorf("nil trace log not handled:\n%s", body)
	}
}

// TestOpsMetricsJSON: /metrics?format=json round-trips the registry's
// counters, gauges and histograms (bounds, buckets, exemplars, count, sum)
// and the snapshot time to the nanosecond, and ?prefix= filters it like the
// text form.
func TestOpsMetricsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("orb.client.calls{op=echo}").Add(9)
	r.Counter("orb.client.calls{op=ping}").Add(1<<40 + 3)
	r.Gauge("orb.server.inflight").Set(-7)
	h := r.Histogram("orb.client.latency_us{op=echo}", LatencyBuckets())
	h.ObserveTrace(3, TraceID(0xbeef))
	h.ObserveTrace(300, TraceID(0xfeed))
	h.ObserveTrace(1<<30, TraceID(0xffffffffffffffff)) // overflow bucket, full-width ID
	h.Observe(5)

	srv := httptest.NewServer(Ops{Registry: r}.Handler())
	defer srv.Close()
	fetch := func(path string) Snapshot {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
		var s Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return s
	}

	before := time.Now()
	got := fetch("/metrics?format=json&prefix=orb.")
	after := time.Now()
	want := r.Snapshot()
	if got.Time.Before(before.Round(0)) || got.Time.After(after.Round(0)) {
		t.Errorf("snapshot time %v outside [%v, %v]", got.Time, before, after)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("counters = %+v, want %+v", got.Counters, want.Counters)
	}
	// The registry now also holds the runtime gauges the scrape sampled;
	// the prefix dropped them.
	if wantG := []GaugePoint{{Name: "orb.server.inflight", Value: -7}}; !reflect.DeepEqual(got.Gauges, wantG) {
		t.Errorf("gauges = %+v, want %+v", got.Gauges, wantG)
	}
	if !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Errorf("histograms = %+v, want %+v", got.Histograms, want.Histograms)
	}
	hp, ok := got.Histogram("orb.client.latency_us{op=echo}")
	if !ok || hp.Count != 4 || hp.TailExemplar() != TraceID(0xffffffffffffffff) {
		t.Errorf("decoded histogram lost its tail: %+v", hp)
	}

	runtimeOnly := fetch("/metrics?format=json&prefix=runtime.")
	if len(runtimeOnly.Counters) != 0 || len(runtimeOnly.Histograms) != 0 {
		t.Errorf("?prefix=runtime. leaked orb metrics: %+v", runtimeOnly)
	}
	if runtimeOnly.Gauge("runtime.goroutines") <= 0 {
		t.Errorf("?prefix=runtime. missing runtime gauges: %+v", runtimeOnly.Gauges)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
}
