package orb_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cool/internal/cdr"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/giop"
	"cool/internal/leakcheck"
	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
	"cool/internal/transport"
)

// echoServant implements a small test interface by hand, the way generated
// skeletons do.
type echoServant struct {
	mu    sync.Mutex
	calls []string
	// lastQoS records the granted QoS of the last invocation.
	lastQoS qos.Set
}

func (s *echoServant) RepoID() string { return "IDL:test/Echo:1.0" }

func (s *echoServant) Invoke(inv *orb.Invocation) (orb.ReplyWriter, error) {
	s.mu.Lock()
	s.calls = append(s.calls, inv.Operation)
	s.lastQoS = inv.QoS.Clone()
	s.mu.Unlock()
	switch inv.Operation {
	case "echo":
		msg, err := inv.Args.ReadString()
		if err != nil {
			return nil, giop.MarshalException()
		}
		return func(enc *cdr.Encoder) { enc.WriteString(msg) }, nil
	case "add":
		a, err := inv.Args.ReadLong()
		if err != nil {
			return nil, giop.MarshalException()
		}
		b, err := inv.Args.ReadLong()
		if err != nil {
			return nil, giop.MarshalException()
		}
		return func(enc *cdr.Encoder) { enc.WriteLong(a + b) }, nil
	case "qos":
		// The writer reads the invocation after Invoke has returned.
		return func(enc *cdr.Encoder) { enc.WriteULong(inv.QoS.Value(qos.Throughput, 0)) }, nil
	case "slow":
		time.Sleep(30 * time.Millisecond)
		return nil, nil
	case "notify":
		return nil, nil // oneway target
	case "reject":
		return nil, &orb.UserError{
			ID:   "IDL:test/Rejected:1.0",
			Body: func(enc *cdr.Encoder) { enc.WriteString("not today") },
		}
	case "boom":
		return nil, errors.New("internal chaos")
	default:
		return nil, giop.BadOperation()
	}
}

func (s *echoServant) callCount(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.calls {
		if c == op {
			n++
		}
	}
	return n
}

// env is a two-ORB test environment sharing one in-process network.
type env struct {
	server, client *orb.ORB
	servant        *echoServant
	ref            func() (refLike, error)
}

type refLike = *orb.Object

// newEnv builds a server ORB listening on the given schemes and a separate
// client ORB wired to the same in-process network and Da CaPo link.
func newEnv(t *testing.T, servantCap qos.Capability, schemes ...string) (*orb.ORB, *orb.ORB, *echoServant, *orb.Object) {
	t.Helper()
	// Registered before the Shutdown cleanup below, so the leak assertion
	// runs after both ORBs have shut down.
	leakcheck.Check(t)
	inner := transport.NewInprocManager()
	lib := modules.NewLibrary()
	link := netsim.LAN().Capability()

	serverORB := orb.New(
		orb.WithName("server"),
		orb.WithTransport(inner),
		orb.WithTransport(dacapo.NewManager(inner, lib, dacapo.NewResourceManager(0, 0), link)),
	)
	clientORB := orb.New(
		orb.WithName("client"),
		orb.WithTransport(inner),
		orb.WithTransport(dacapo.NewManager(inner, lib, dacapo.NewResourceManager(0, 0), link)),
		orb.WithPrincipal([]byte("test-client")),
	)
	t.Cleanup(func() {
		clientORB.Shutdown()
		serverORB.Shutdown()
	})

	for _, scheme := range schemes {
		if _, err := serverORB.ListenOn(scheme, ""); err != nil {
			t.Fatal(err)
		}
	}
	servant := &echoServant{}
	opts := []orb.ServantOption{}
	if servantCap != nil {
		opts = append(opts, orb.WithCapability(servantCap))
	}
	ref, err := serverORB.RegisterServant(servant, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return serverORB, clientORB, servant, clientORB.Resolve(ref)
}

func invokeEcho(t *testing.T, obj *orb.Object, msg string) string {
	t.Helper()
	var got string
	err := obj.Invoke("echo",
		func(enc *cdr.Encoder) { enc.WriteString(msg) },
		func(dec *cdr.Decoder) error {
			var err error
			got, err = dec.ReadString()
			return err
		})
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	return got
}

func TestRemoteInvocationPerTransport(t *testing.T) {
	for _, scheme := range []string{"tcp", "inproc", "dacapo"} {
		t.Run(scheme, func(t *testing.T) {
			_, _, servant, obj := newEnv(t, nil, scheme)
			if got := invokeEcho(t, obj, "hello "+scheme); got != "hello "+scheme {
				t.Fatalf("echo = %q", got)
			}
			if servant.callCount("echo") != 1 {
				t.Fatalf("servant calls = %v", servant.calls)
			}
			colocated, err := obj.Colocated()
			if err != nil {
				t.Fatal(err)
			}
			if colocated {
				t.Fatal("cross-ORB invocation must not be colocated")
			}
		})
	}
}

func TestInvocationWithArithmetic(t *testing.T) {
	_, _, _, obj := newEnv(t, nil, "tcp")
	var sum int32
	err := obj.Invoke("add",
		func(enc *cdr.Encoder) { enc.WriteLong(20); enc.WriteLong(22) },
		func(dec *cdr.Decoder) error {
			var err error
			sum, err = dec.ReadLong()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestColocatedInvocation(t *testing.T) {
	serverORB, _, servant, _ := newEnv(t, nil, "inproc")
	// A proxy resolved in the *server* ORB itself must short-circuit.
	ref := serverORB.RefFor(servant.RepoID(), mustKey(t, serverORB, servant))
	obj := serverORB.Resolve(ref)
	colocated, err := obj.Colocated()
	if err != nil {
		t.Fatal(err)
	}
	if !colocated {
		t.Fatal("same-ORB binding should be colocated")
	}
	if got := invokeEcho(t, obj, "local"); got != "local" {
		t.Fatalf("echo = %q", got)
	}
}

// mustKey digs out the object key by re-registering a reference lookup: the
// test servant was registered once; RefFor needs its key. We reconstruct it
// from the ref returned at registration time instead.
func mustKey(t *testing.T, o *orb.ORB, s orb.Servant) []byte {
	t.Helper()
	// The first registered object gets key "obj-1" by construction.
	return []byte("obj-1")
}

func TestColocatedOnlyORB(t *testing.T) {
	// No listeners at all: the reference falls back to a local profile.
	local := orb.New(orb.WithName("solo"))
	defer local.Shutdown()
	servant := &echoServant{}
	ref, err := local.RegisterServant(servant)
	if err != nil {
		t.Fatal(err)
	}
	obj := local.Resolve(ref)
	if got := invokeEcho(t, obj, "solo"); got != "solo" {
		t.Fatalf("echo = %q", got)
	}
}

func TestOnewayInvocation(t *testing.T) {
	_, client, servant, obj := newEnv(t, nil, "tcp")
	if err := obj.InvokeOneway("notify", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for servant.callCount("notify") == 0 {
		select {
		case <-deadline:
			t.Fatal("oneway never dispatched")
		case <-time.After(time.Millisecond):
		}
	}
	// The oneway send must consume its Pending so that send latency is
	// observed (and the client span ended) even with no reply to wait for.
	h, ok := client.Metrics().Snapshot().Histogram("orb.client.latency_us{op=notify}")
	if !ok || h.Count == 0 {
		t.Fatalf("oneway send latency not recorded (found=%v count=%d)", ok, h.Count)
	}
}

func TestDeferredInvocation(t *testing.T) {
	_, _, _, obj := newEnv(t, nil, "tcp")
	p, err := obj.InvokeDeferred("echo", func(enc *cdr.Encoder) { enc.WriteString("later") })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for !p.Poll() {
		select {
		case <-deadline:
			t.Fatal("deferred reply never arrived")
		case <-time.After(time.Millisecond):
		}
	}
	var got string
	if err := p.Wait(func(dec *cdr.Decoder) error {
		var err error
		got, err = dec.ReadString()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != "later" {
		t.Fatalf("got %q", got)
	}
}

func TestAsyncNotify(t *testing.T) {
	_, _, _, obj := newEnv(t, nil, "tcp")
	done := make(chan string, 1)
	err := obj.InvokeAsync("echo",
		func(enc *cdr.Encoder) { enc.WriteString("ping") },
		func(out *cdr.Decoder, err error) {
			if err != nil {
				done <- "error: " + err.Error()
				return
			}
			s, _ := out.ReadString()
			done <- s
		})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != "ping" {
			t.Fatalf("notify got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notify never called")
	}
}

func TestCancelSuppressesReply(t *testing.T) {
	_, _, _, obj := newEnv(t, nil, "tcp")
	p, err := obj.InvokeDeferred("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(nil); err == nil {
		t.Fatal("Wait after Cancel should fail")
	}
	// The connection must remain usable for later calls.
	if got := invokeEcho(t, obj, "after cancel"); got != "after cancel" {
		t.Fatalf("echo = %q", got)
	}
}

func TestUserException(t *testing.T) {
	_, _, _, obj := newEnv(t, nil, "tcp")
	err := obj.Invoke("reject", nil, nil)
	var ue *giop.UserException
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UserException", err)
	}
	if ue.ID != "IDL:test/Rejected:1.0" {
		t.Fatalf("id = %q", ue.ID)
	}
	dec, err := cdr.DecodeEncapsulation(ue.Data)
	if err != nil {
		t.Fatal(err)
	}
	if msg, _ := dec.ReadString(); msg != "not today" {
		t.Fatalf("member = %q", msg)
	}
}

func TestSystemExceptions(t *testing.T) {
	_, _, _, obj := newEnv(t, nil, "tcp")

	t.Run("bad operation", func(t *testing.T) {
		err := obj.Invoke("no-such-op", nil, nil)
		var se *giop.SystemException
		if !errors.As(err, &se) || se.Name() != "BAD_OPERATION" {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("servant panic-equivalent maps to UNKNOWN", func(t *testing.T) {
		err := obj.Invoke("boom", nil, nil)
		var se *giop.SystemException
		if !errors.As(err, &se) || se.Name() != "UNKNOWN" {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestObjectNotExist(t *testing.T) {
	serverORB, clientORB, _, _ := newEnv(t, nil, "tcp")
	ref := serverORB.RefFor("IDL:test/Ghost:1.0", []byte("no-such-key"))
	obj := clientORB.Resolve(ref)
	err := obj.Invoke("echo", func(enc *cdr.Encoder) { enc.WriteString("x") }, nil)
	var se *giop.SystemException
	if !errors.As(err, &se) || se.Name() != "OBJECT_NOT_EXIST" {
		t.Fatalf("err = %v", err)
	}
}

func TestLocate(t *testing.T) {
	serverORB, clientORB, servant, obj := newEnv(t, nil, "tcp")
	here, err := obj.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if !here {
		t.Fatal("servant should be located")
	}
	ghost := clientORB.Resolve(serverORB.RefFor(servant.RepoID(), []byte("ghost")))
	here, err = ghost.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if here {
		t.Fatal("ghost key should not be located")
	}
}

func TestConcurrentInvocationsShareConnection(t *testing.T) {
	_, _, servant, obj := newEnv(t, nil, "tcp")
	const workers, calls = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				msg := fmt.Sprintf("w%d-%d", w, i)
				var got string
				err := obj.Invoke("echo",
					func(enc *cdr.Encoder) { enc.WriteString(msg) },
					func(dec *cdr.Decoder) error {
						var err error
						got, err = dec.ReadString()
						return err
					})
				if err != nil {
					t.Errorf("%s: %v", msg, err)
					return
				}
				if got != msg {
					t.Errorf("got %q, want %q (reply routed to wrong caller)", got, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := servant.callCount("echo"); n != workers*calls {
		t.Fatalf("servant saw %d echo calls, want %d", n, workers*calls)
	}
}

func TestQoSInvocationOverDacapo(t *testing.T) {
	servantCap := qos.Capability{
		qos.Throughput: {Best: 50_000, Supported: true},
		qos.Latency:    {Best: 1000, Supported: true},
		qos.Reliability: {
			Best: 0, Supported: true,
		},
	}
	_, _, servant, obj := newEnv(t, servantCap, "dacapo")
	req := qos.Set{
		{Type: qos.Throughput, Request: 10_000, Max: qos.NoLimit, Min: 1000},
		{Type: qos.Reliability, Request: 0, Max: 0, Min: 0},
	}
	if err := obj.SetQoSParameter(req); err != nil {
		t.Fatal(err)
	}
	if got := invokeEcho(t, obj, "with qos"); got != "with qos" {
		t.Fatalf("echo = %q", got)
	}
	servant.mu.Lock()
	lastQoS := servant.lastQoS
	servant.mu.Unlock()
	if lastQoS.Value(qos.Throughput, 0) != 10_000 {
		t.Fatalf("servant saw QoS %v", lastQoS)
	}
	if granted := obj.GrantedQoS(); granted.Value(qos.Throughput, 0) != 10_000 {
		t.Fatalf("transport granted %v", granted)
	}
}

// TestReplyWriterSeesItsOwnInvocation pins the Invocation lifetime: a
// ReplyWriter runs after Invoke has returned and must still read its own
// invocation while concurrent callers with other QoS sets cycle records
// through the server's pool.
func TestReplyWriterSeesItsOwnInvocation(t *testing.T) {
	_, client, _, obj := newEnv(t, qos.Unconstrained(), "dacapo")
	const callers, calls = 8, 20
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		want := uint32(1000 * (c + 1))
		proxy := client.Resolve(obj.Ref())
		if err := proxy.SetQoSParameter(qos.Set{{Type: qos.Throughput, Request: want, Max: qos.NoLimit, Min: int32(want)}}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var got uint32
				err := proxy.Invoke("qos", nil, func(dec *cdr.Decoder) error {
					var err error
					got, err = dec.ReadULong()
					return err
				})
				if err != nil {
					t.Errorf("caller %d: %v", want, err)
					return
				}
				if got != want {
					t.Errorf("caller with throughput %d was served at %d", want, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestBilateralNACK(t *testing.T) {
	// The object implementation can only do 1 Mbit/s; the client demands
	// at least 5 Mbit/s: the server must NACK with NO_RESOURCES.
	servantCap := qos.Capability{qos.Throughput: {Best: 1000, Supported: true}}
	_, _, _, obj := newEnv(t, servantCap, "dacapo")
	req := qos.Set{{Type: qos.Throughput, Request: 10_000, Max: qos.NoLimit, Min: 5000}}
	if err := obj.SetQoSParameter(req); err != nil {
		t.Fatal(err)
	}
	err := obj.Invoke("echo", func(enc *cdr.Encoder) { enc.WriteString("x") }, nil)
	var se *giop.SystemException
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want SystemException", err)
	}
	if !se.IsNACK() {
		t.Fatalf("exception = %v, want NO_RESOURCES NACK", se)
	}
}

func TestUnilateralTransportNACK(t *testing.T) {
	// Demand beyond the 155 Mbit/s link: the transport-level negotiation
	// fails at binding time, before any request is sent.
	_, _, servant, obj := newEnv(t, qos.Unconstrained(), "dacapo")
	req := qos.Set{{Type: qos.Throughput, Request: 1 << 30, Max: qos.NoLimit, Min: 1 << 29}}
	if err := obj.SetQoSParameter(req); err != nil {
		t.Fatal(err)
	}
	err := obj.Invoke("echo", func(enc *cdr.Encoder) { enc.WriteString("x") }, nil)
	if err == nil {
		t.Fatal("expected binding failure")
	}
	if servant.callCount("echo") != 0 {
		t.Fatal("request must not reach the servant")
	}
}

func TestQoSRequiresCapableProfile(t *testing.T) {
	// Server listens on tcp only: no profile supports QoS, so a QoS
	// binding must fail with ErrNoUsableProfile.
	_, _, _, obj := newEnv(t, qos.Unconstrained(), "tcp")
	req := qos.Set{{Type: qos.Throughput, Request: 1000, Max: qos.NoLimit, Min: 500}}
	if err := obj.SetQoSParameter(req); err != nil {
		t.Fatal(err)
	}
	err := obj.Invoke("echo", func(enc *cdr.Encoder) { enc.WriteString("x") }, nil)
	if !errors.Is(err, orb.ErrNoUsableProfile) {
		t.Fatalf("err = %v, want ErrNoUsableProfile", err)
	}
}

func TestPerBindingVersusPerMethodQoS(t *testing.T) {
	_, _, _, obj := newEnv(t, qos.Unconstrained(), "dacapo")

	// Never calling setQoSParameter keeps standard GIOP (empty QoS at the
	// servant, 1.0 on the wire — verified indirectly by requested set).
	if got := obj.QoS(); len(got) != 0 {
		t.Fatalf("initial qos = %v", got)
	}

	// Per-binding: one setQoSParameter, many invocations.
	req1 := qos.Set{{Type: qos.Throughput, Request: 1000, Max: qos.NoLimit, Min: 100}}
	if err := obj.SetQoSParameter(req1); err != nil {
		t.Fatal(err)
	}
	invokeEcho(t, obj, "a")
	invokeEcho(t, obj, "b")

	// Per-method: change QoS before the next invocation; the binding is
	// renegotiated.
	req2 := qos.Set{{Type: qos.Throughput, Request: 2000, Max: qos.NoLimit, Min: 100}}
	if err := obj.SetQoSParameter(req2); err != nil {
		t.Fatal(err)
	}
	invokeEcho(t, obj, "c")
	if granted := obj.GrantedQoS(); granted.Value(qos.Throughput, 0) != 2000 {
		t.Fatalf("granted after renegotiation = %v", granted)
	}

	// Returning to best effort (nil) works too.
	if err := obj.SetQoSParameter(nil); err != nil {
		t.Fatal(err)
	}
	invokeEcho(t, obj, "d")
}

func TestShutdownIdempotent(t *testing.T) {
	serverORB, clientORB, _, obj := newEnv(t, nil, "tcp")
	invokeEcho(t, obj, "warm")
	clientORB.Shutdown()
	clientORB.Shutdown()
	serverORB.Shutdown()
	if err := obj.Invoke("echo", func(enc *cdr.Encoder) { enc.WriteString("x") }, nil); err == nil {
		t.Fatal("invocation after shutdown should fail")
	}
}

func TestAdapterDeactivate(t *testing.T) {
	serverORB, clientORB, servant, obj := newEnv(t, nil, "tcp")
	invokeEcho(t, obj, "alive")
	serverORB.Adapter().Deactivate([]byte("obj-1"))
	err := obj.Invoke("echo", func(enc *cdr.Encoder) { enc.WriteString("x") }, nil)
	var se *giop.SystemException
	if !errors.As(err, &se) || se.Name() != "OBJECT_NOT_EXIST" {
		t.Fatalf("err = %v", err)
	}
	_ = clientORB
	_ = servant
}
