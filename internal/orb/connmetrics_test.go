package orb_test

import (
	"context"
	"testing"
	"time"

	"cool/internal/cdr"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/ior"
	"cool/internal/leakcheck"
	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
	"cool/internal/transport"
)

// TestConnLifecycleMetrics pins transport.conns.* on two real ORBs over
// one inproc network: each ORB counts the channel it dialled or accepted,
// Shutdown counts every channel closed exactly once, a dial to a missing
// endpoint counts one failure per attempt, and a listener closed by
// Shutdown is not a failed accept.
func TestConnLifecycleMetrics(t *testing.T) {
	server, client, _, obj := newEnv(t, nil, "inproc")
	const (
		opened = "transport.conns.opened{scheme=inproc}"
		closed = "transport.conns.closed{scheme=inproc}"
		failed = "transport.conns.failed{scheme=inproc}"
		active = "transport.conns.active{scheme=inproc}"
	)
	want := func(o *orb.ORB, side string, nOpened, nClosed, nFailed uint64, nActive int64) {
		t.Helper()
		ss := o.Metrics().Snapshot()
		if got := ss.Counter(opened); got != nOpened {
			t.Errorf("%s: opened = %d, want %d", side, got, nOpened)
		}
		if got := ss.Counter(closed); got != nClosed {
			t.Errorf("%s: closed = %d, want %d", side, got, nClosed)
		}
		if got := ss.Counter(failed); got != nFailed {
			t.Errorf("%s: failed = %d, want %d", side, got, nFailed)
		}
		if got := ss.Gauge(active); got != nActive {
			t.Errorf("%s: active = %d, want %d", side, got, nActive)
		}
	}

	// The first call dials on the client and is accepted on the server.
	invokeEcho(t, obj, "hi")
	want(client, "client after dial", 1, 0, 0, 1)
	want(server, "server after accept", 1, 0, 0, 1)

	// Every attempt at a missing endpoint is one failed dial; the retries
	// counter tells how many attempts the deadline allowed.
	missing := client.Resolve(ior.Ref{TypeID: "IDL:test/Echo:1.0", Profiles: []ior.Profile{{
		Transport: "inproc",
		Address:   "no-such-endpoint",
		ObjectKey: []byte("k"),
	}}})
	before := client.Metrics().Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := missing.InvokeCtx(ctx, "echo", func(enc *cdr.Encoder) { enc.WriteString("x") }, nil); err == nil {
		t.Fatal("invocation on a missing endpoint succeeded")
	}
	d := client.Metrics().Snapshot().Delta(before)
	attempts := 1 + d.Counter("orb.client.retries")
	if got := d.Counter(failed); got != attempts {
		t.Errorf("failed dials = %d over %d attempts, want one per attempt", got, attempts)
	}
	if got := d.Counter(opened); got != 0 {
		t.Errorf("failed dials moved opened by %d", got)
	}

	// The server shuts down first: its Shutdown and its serve loop both
	// close the accepted channel, and its listener's close ends the accept
	// loop. Neither may count twice or as a failure.
	server.Shutdown()
	client.Shutdown()
	want(client, "client after Shutdown", 1, 1, attempts, 0)
	want(server, "server after Shutdown", 1, 1, 0, 0)
}

// TestConnCountedClosedWhenTransportRefusesQoS: a dialled channel whose
// unilateral QoS negotiation fails is closed at once, and counted closed.
func TestConnCountedClosedWhenTransportRefusesQoS(t *testing.T) {
	leakcheck.Check(t)
	inner := transport.NewInprocManager()
	lib := modules.NewLibrary()
	link := netsim.LAN().Capability()
	server := orb.New(orb.WithTransport(inner),
		orb.WithTransport(dacapo.NewManager(inner, lib, dacapo.NewResourceManager(0, 0), link)))
	// The client's own budget of 1 Mbit/s refuses the 2 Mbit/s floor.
	client := orb.New(orb.WithTransport(inner),
		orb.WithTransport(dacapo.NewManager(inner, lib, dacapo.NewResourceManager(1000, 0), link)))
	t.Cleanup(func() { client.Shutdown(); server.Shutdown() })
	if _, err := server.ListenOn("dacapo", ""); err != nil {
		t.Fatal(err)
	}
	ref, err := server.RegisterServant(&echoServant{}, orb.WithCapability(qos.Unconstrained()))
	if err != nil {
		t.Fatal(err)
	}
	obj := client.Resolve(ref)
	if err := obj.SetQoSParameter(qos.Set{{Type: qos.Throughput, Request: 5000, Max: qos.NoLimit, Min: 2000}}); err != nil {
		t.Fatal(err)
	}
	if err := obj.Invoke("echo", func(enc *cdr.Encoder) { enc.WriteString("x") }, nil); err == nil {
		t.Fatal("binding beyond the client's budget succeeded")
	}
	ss := client.Metrics().Snapshot()
	opened := ss.Counter("transport.conns.opened{scheme=dacapo}")
	closed := ss.Counter("transport.conns.closed{scheme=dacapo}")
	if opened != 1 || closed != 1 {
		t.Errorf("opened = %d, closed = %d; want the refused channel opened and closed once", opened, closed)
	}
	if got := ss.Gauge("transport.conns.active{scheme=dacapo}"); got != 0 {
		t.Errorf("active = %d, want 0", got)
	}
}
