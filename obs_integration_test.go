package cool_test

import (
	"strings"
	"testing"
	"time"

	"cool"
	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/obs"
	"cool/internal/qos"
	"cool/internal/transport"
)

type obsEcho struct{}

func (obsEcho) RepoID() string { return "IDL:test/ObsEcho:1.0" }

func (obsEcho) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	switch inv.Operation {
	case "echo":
		msg, err := inv.Args.ReadOctetSeq()
		if err != nil {
			return nil, giop.MarshalException()
		}
		out := append([]byte(nil), msg...)
		return func(enc *cdr.Encoder) { enc.WriteOctetSeq(out) }, nil
	default:
		return nil, giop.BadOperation()
	}
}

// TestObservabilityEndToEnd is the acceptance check for the observability
// layer: client→server invocations over real TCP sockets with Da CaPo
// enabled must produce (a) the same trace ID in both processes' span logs,
// joined parent→child via the GIOP trace service context, (b) non-zero
// latency histogram buckets on both sides, (c) GIOP message counters that
// match the number of requests/replies, and (d) a Da CaPo admission event.
func TestObservabilityEndToEnd(t *testing.T) {
	server := cool.NewORB(cool.WithName("obs-server"))
	defer server.Shutdown()
	cool.EnableDaCaPo(server, cool.DaCaPoConfig{Inner: transport.NewTCPManager()})
	serverLog := cool.TraceLog(server)
	if _, err := server.ListenOn("dacapo", "127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	ref, err := server.RegisterServant(obsEcho{}, cool.WithCapability(qos.Unconstrained()))
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	client := cool.NewORB(cool.WithName("obs-client"))
	defer client.Shutdown()
	cool.EnableDaCaPo(client, cool.DaCaPoConfig{Inner: transport.NewTCPManager()})
	clientLog := cool.TraceLog(client)

	obj, err := client.ResolveString(cool.RefString(ref))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	req, err := cool.TryQoS(cool.MinThroughput(5_000, 1_000))
	if err != nil {
		t.Fatalf("TryQoS: %v", err)
	}
	if err := obj.SetQoSParameter(req); err != nil {
		t.Fatalf("SetQoSParameter: %v", err)
	}

	const calls = 8
	payload := []byte("observable payload")
	for i := 0; i < calls; i++ {
		err := obj.Invoke("echo",
			func(enc *cdr.Encoder) { enc.WriteOctetSeq(payload) },
			func(dec *cdr.Decoder) error {
				got, err := dec.ReadOctetSeq()
				if err != nil {
					return err
				}
				if string(got) != string(payload) {
					t.Errorf("echo mismatch: %q", got)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}

	// (a) Cross-process trace propagation: every client span must reappear
	// as a server span with the same trace ID, parented on the client span.
	clientSpans := map[obs.TraceID]obs.Event{}
	for _, ev := range clientLog.Events() {
		if ev.Kind == "span" && ev.Name == "client:echo" {
			clientSpans[ev.Trace] = ev
		}
	}
	if len(clientSpans) != calls {
		t.Fatalf("client spans: got %d traces, want %d", len(clientSpans), calls)
	}
	joined := 0
	for _, ev := range serverLog.Events() {
		if ev.Kind != "span" || ev.Name != "server:echo" {
			continue
		}
		cs, ok := clientSpans[ev.Trace]
		if !ok {
			t.Errorf("server span trace %s not found on the client side", ev.Trace)
			continue
		}
		if ev.Parent != cs.Span {
			t.Errorf("server span parent %016x, want client span %016x", ev.Parent, cs.Span)
		}
		if ev.Outcome != "ok" {
			t.Errorf("server span outcome %q, want ok", ev.Outcome)
		}
		joined++
	}
	if joined != calls {
		t.Errorf("joined server spans: got %d, want %d", joined, calls)
	}

	cs := cool.Metrics(client).Snapshot()
	// The server counts a reply once its send returns, which can be after
	// the client has already read it: wait for the last count to land.
	ss := cool.Metrics(server).Snapshot()
	for deadline := time.Now().Add(5 * time.Second); ss.Counter("giop.out.msgs{type=Reply}") < calls && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		ss = cool.Metrics(server).Snapshot()
	}

	// (b) Non-zero latency histograms on both sides.
	for _, probe := range []struct {
		side string
		s    cool.MetricsSnapshot
		name string
	}{
		{"client", cs, "orb.client.latency_us{op=echo}"},
		{"server", ss, "orb.server.dispatch_us{op=echo}"},
	} {
		h, ok := probe.s.Histogram(probe.name)
		if !ok {
			t.Fatalf("%s: histogram %s missing", probe.side, probe.name)
		}
		if h.Count != calls {
			t.Errorf("%s: %s count = %d, want %d", probe.side, probe.name, h.Count, calls)
		}
		nonZero := 0
		for _, b := range h.Buckets {
			if b > 0 {
				nonZero++
			}
		}
		if nonZero == 0 {
			t.Errorf("%s: %s has no non-zero buckets", probe.side, probe.name)
		}
	}

	// (c) GIOP message counters match the requests/replies exchanged.
	for _, probe := range []struct {
		side string
		s    cool.MetricsSnapshot
		name string
		want uint64
	}{
		{"client", cs, "orb.client.calls{op=echo}", calls},
		{"client", cs, "giop.out.msgs{type=Request}", calls},
		{"client", cs, "giop.in.msgs{type=Reply}", calls},
		{"server", ss, "orb.server.requests{op=echo}", calls},
		{"server", ss, "giop.in.msgs{type=Request}", calls},
		{"server", ss, "giop.out.msgs{type=Reply}", calls},
		{"client", cs, "orb.client.qos{result=ack}", 1},
	} {
		if got := probe.s.Counter(probe.name); got != probe.want {
			t.Errorf("%s: %s = %d, want %d", probe.side, probe.name, got, probe.want)
		}
	}

	// (d) The server observed the Da CaPo admission decision.
	admissions := 0
	for _, ev := range serverLog.Events() {
		if ev.Kind == "dacapo.admission" {
			if ev.Outcome != "accept" {
				t.Errorf("admission outcome %q, want accept", ev.Outcome)
			}
			admissions++
		}
	}
	if admissions == 0 {
		t.Error("no dacapo.admission event on the server side")
	}
	if got := ss.Counter("dacapo.admission.accepted"); got == 0 {
		t.Error("dacapo.admission.accepted counter is zero")
	}

	// The text exposition renders both the counters and the histograms.
	text := cs.Text()
	for _, want := range []string{"orb.client.calls{op=echo} 8", "orb.client.latency_us{op=echo} count=8"} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot text missing %q:\n%s", want, text)
		}
	}

	// (e) Cross-process exemplars: the client latency histogram's tail
	// exemplar — the trace behind the worst observed latency, the one a p99
	// investigation would chase — must resolve to a server-side span
	// carrying the same trace ID.
	ch, _ := cs.Histogram("orb.client.latency_us{op=echo}")
	tail := ch.TailExemplar()
	if tail.IsZero() {
		t.Fatal("client latency histogram recorded no tail exemplar")
	}
	if _, ok := clientSpans[tail]; !ok {
		t.Errorf("tail exemplar %s is not a client-side trace", tail)
	}
	resolved := false
	for _, ev := range serverLog.Events() {
		if ev.Kind == "span" && ev.Name == "server:echo" && ev.Trace == tail {
			resolved = true
			break
		}
	}
	if !resolved {
		t.Errorf("tail exemplar %s does not resolve to a server-side span", tail)
	}
	// Every occupied bucket carries an exemplar (all calls were traced),
	// and the exposition renders them as #<trace-id> suffixes.
	for i, b := range ch.Buckets {
		if b > 0 && ch.Exemplars[i] == 0 {
			t.Errorf("occupied bucket %d has no exemplar", i)
		}
	}
	if !strings.Contains(text, "#"+tail.String()) {
		t.Errorf("snapshot text missing exemplar #%s:\n%s", tail, text)
	}
}
