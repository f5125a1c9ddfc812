package cool_test

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"cool"
	"cool/internal/cdr"
	"cool/internal/giop"
)

// laggyEcho answers echo after a deliberate delay so slow-call detection has
// something to catch.
type laggyEcho struct{ delay time.Duration }

func (laggyEcho) RepoID() string { return "IDL:test/LaggyEcho:1.0" }

func (s laggyEcho) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	switch inv.Operation {
	case "echo":
		msg, err := inv.Args.ReadOctetSeq()
		if err != nil {
			return nil, giop.MarshalException()
		}
		time.Sleep(s.delay)
		out := append([]byte(nil), msg...)
		return func(enc *cdr.Encoder) { enc.WriteOctetSeq(out) }, nil
	default:
		return nil, giop.BadOperation()
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

// TestOpsEndpointEndToEnd drives traced invocations against a server with a
// slow-call threshold, then checks the whole live-observability loop: the
// /metrics exposition carries per-op percentiles with a bucket exemplar,
// /trace resolves that exemplar to the server-side span, /trace/slow lists
// the slow dispatches, and both sides' SlowLogs captured records.
func TestOpsEndpointEndToEnd(t *testing.T) {
	const threshold = 100 * time.Microsecond
	server := cool.NewORB(cool.WithName("ops-server"), cool.WithSlowCallThreshold(threshold))
	defer server.Shutdown()
	if _, err := server.ListenOn("tcp", "127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	ref, err := server.RegisterServant(laggyEcho{delay: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	ops, err := cool.ServeOps("127.0.0.1:0", server)
	if err != nil {
		t.Fatalf("ServeOps: %v", err)
	}
	defer ops.Close()

	client := cool.NewORB(cool.WithName("ops-client"), cool.WithSlowCallThreshold(threshold))
	defer client.Shutdown()
	cool.TraceLog(client) // tracing on: trace context propagates, exemplars record

	obj, err := client.ResolveString(cool.RefString(ref))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	const calls = 4
	for i := 0; i < calls; i++ {
		err := obj.Invoke("echo",
			func(enc *cdr.Encoder) { enc.WriteOctetSeq([]byte("x")) },
			func(dec *cdr.Decoder) error { _, err := dec.ReadOctetSeq(); return err })
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}

	base := "http://" + ops.Addr()

	// /metrics: per-op dispatch percentiles plus a bucket exemplar, and the
	// runtime gauges sampled at scrape time.
	metrics := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"orb.server.requests{op=echo} 4",
		"orb.server.dispatch_us{op=echo} count=4",
		"p99=",
		"orb.server.slow_calls 4",
		"runtime.goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Pull the dispatch histogram's exemplar out of the exposition and
	// resolve it through /trace — the curl-level version of "p99 spike →
	// which call was that?".
	histLine := ""
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "orb.server.dispatch_us{op=echo}") {
			histLine = line
		}
	}
	m := regexp.MustCompile(`#([0-9a-f]{16})`).FindStringSubmatch(histLine)
	if m == nil {
		t.Fatalf("dispatch histogram line carries no exemplar: %q", histLine)
	}
	traceDump := httpGet(t, base+"/trace?trace="+m[1])
	if !strings.Contains(traceDump, "server:echo") {
		t.Errorf("exemplar %s did not resolve to a server span:\n%s", m[1], traceDump)
	}

	// /trace/slow: the dispatches (2ms against a 100µs bound) are listed
	// with trace IDs and the configured bound.
	slowDump := httpGet(t, base+"/trace/slow")
	if !strings.Contains(slowDump, "server echo") || !strings.Contains(slowDump, "bound=100µs") {
		t.Errorf("/trace/slow missing slow dispatches:\n%s", slowDump)
	}

	// Both sides' slow logs captured structured records; the client one
	// names the peer endpoint.
	if got := cool.SlowCalls(server).Total(); got != calls {
		t.Errorf("server slow calls = %d, want %d", got, calls)
	}
	clientCalls := cool.SlowCalls(client).Calls()
	if len(clientCalls) != calls {
		t.Fatalf("client slow calls = %d, want %d", len(clientCalls), calls)
	}
	c := clientCalls[0]
	if c.Side != "client" || c.Op != "echo" || !strings.HasPrefix(c.Peer, "tcp://") {
		t.Errorf("client slow record wrong: %+v", c)
	}
	if c.Dur <= c.Bound || c.Bound != threshold {
		t.Errorf("client slow record dur=%v bound=%v, want dur > bound = %v", c.Dur, c.Bound, threshold)
	}
	if c.Trace.IsZero() {
		t.Error("client slow record has no trace ID")
	}
}

// TestOpsSnapshotDelta exercises the structured snapshot path coolstat
// -watch uses: two /metrics?format=json fetches around a burst of calls,
// diffed with Delta, must show exactly that burst as rates and percentiles.
func TestOpsSnapshotDelta(t *testing.T) {
	server := cool.NewORB(cool.WithName("delta-server"))
	defer server.Shutdown()
	if _, err := server.ListenOn("tcp", "127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	ref, err := server.RegisterServant(obsEcho{})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ops, err := cool.ServeOps("127.0.0.1:0", server)
	if err != nil {
		t.Fatalf("ServeOps: %v", err)
	}
	defer ops.Close()
	base := "http://" + ops.Addr()

	client := cool.NewORB(cool.WithName("delta-client"))
	defer client.Shutdown()
	obj, err := client.ResolveString(cool.RefString(ref))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}

	echo := func(n int) {
		for i := 0; i < n; i++ {
			err := obj.Invoke("echo",
				func(enc *cdr.Encoder) { enc.WriteOctetSeq([]byte("d")) },
				func(dec *cdr.Decoder) error { _, err := dec.ReadOctetSeq(); return err })
			if err != nil {
				t.Fatalf("invoke: %v", err)
			}
		}
	}
	snapshot := func() cool.MetricsSnapshot {
		t.Helper()
		var s cool.MetricsSnapshot
		if err := json.Unmarshal([]byte(httpGet(t, base+"/metrics?format=json")), &s); err != nil {
			t.Fatalf("decode snapshot: %v", err)
		}
		return s
	}

	echo(3)
	prev := snapshot()
	if got := prev.Counter("orb.server.requests{op=echo}"); got != 3 {
		t.Errorf("first snapshot echo requests = %d, want 3", got)
	}
	echo(5)
	cur := snapshot()

	d := cur.Delta(prev)
	if d.Interval <= 0 {
		t.Fatalf("delta interval = %v, want > 0", d.Interval)
	}
	if got := d.Counter("orb.server.requests{op=echo}"); got != 5 {
		t.Errorf("delta echo requests = %d, want 5", got)
	}
	if rate := d.Rate("orb.server.requests{op=echo}"); rate <= 0 {
		t.Errorf("delta rate = %f, want > 0", rate)
	}
	h, ok := d.Histogram("orb.server.dispatch_us{op=echo}")
	if !ok {
		t.Fatal("dispatch histogram missing from delta")
	}
	if h.Count != 5 {
		t.Errorf("delta dispatch count = %d, want 5", h.Count)
	}
	// The slow log is empty: nothing was slow.
	if slow := httpGet(t, base+"/trace/slow"); slow != "(no slow calls recorded)\n" {
		t.Errorf("slow log should be empty, got:\n%s", slow)
	}
}
