package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/ior"
	"cool/internal/leakcheck"
	"cool/internal/transport"
)

// flowServant echoes a string ("echo", after a short pause so callers pile
// up behind the in-flight cap) and parks "slow" until the gate closes.
type flowServant struct{ gate chan struct{} }

func (flowServant) RepoID() string { return "IDL:test/Flow:1.0" }

func (s flowServant) Invoke(inv *Invocation) (ReplyWriter, error) {
	switch inv.Operation {
	case "echo":
		msg, err := inv.Args.ReadString()
		if err != nil {
			return nil, giop.MarshalException()
		}
		time.Sleep(time.Millisecond)
		return func(enc *cdr.Encoder) { enc.WriteString(msg) }, nil
	case "slow":
		select {
		case <-s.gate:
		case <-inv.Ctx.Done():
		}
		return nil, nil
	default:
		return nil, giop.BadOperation()
	}
}

// flowEnv serves a flowServant over inproc and returns the client ORB, the
// servant's reference and the servant's gate (closed at cleanup unless the
// test closed it).
func flowEnv(t *testing.T) (*ORB, ior.Ref, chan struct{}) {
	t.Helper()
	leakcheck.Check(t)
	inner := transport.NewInprocManager()
	server := New(WithName("flow-s"), WithTransport(inner))
	client := New(WithName("flow-c"), WithTransport(inner))
	gate := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-gate: // the test opened it
		default:
			close(gate)
		}
		client.Shutdown()
		server.Shutdown()
	})
	if _, err := server.ListenOn("inproc", ""); err != nil {
		t.Fatal(err)
	}
	ref, err := server.RegisterServant(flowServant{gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	return client, ref, gate
}

// capConn binds obj and lowers its connection's in-flight limit.
func capConn(t *testing.T, obj *Object, limit int) *clientConn {
	t.Helper()
	if _, err := obj.Colocated(); err != nil {
		t.Fatal(err)
	}
	obj.mu.Lock()
	conn := obj.binding.conn
	obj.mu.Unlock()
	conn.mu.Lock()
	conn.limit = limit
	conn.mu.Unlock()
	return conn
}

// TestDeferredDeadlineUnderBackpressure: a deferred invocation whose context
// expires while it is queued behind the in-flight limit fails like a
// synchronous one — a TIMEOUT system exception that is also
// context.DeadlineExceeded, counted in orb.client.deadline_exceeded.
func TestDeferredDeadlineUnderBackpressure(t *testing.T) {
	client, ref, gate := flowEnv(t)
	obj := client.Resolve(ref)
	capConn(t, obj, 1)

	held, err := obj.InvokeDeferred("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = obj.InvokeDeferredCtx(ctx, "slow", nil)
	var se *giop.SystemException
	if !errors.As(err, &se) || !se.IsTimeout() {
		t.Fatalf("err = %v, want TIMEOUT system exception", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(context.DeadlineExceeded)", err)
	}
	if n := client.Metrics().Snapshot().Counter(mClientDeadline); n != 1 {
		t.Fatalf("%s = %d, want 1", mClientDeadline, n)
	}

	// The outstanding call is unaffected and still completes.
	close(gate)
	if err := held.Wait(nil); err != nil {
		t.Fatal(err)
	}
}

// TestInFlightCapSharedConnection drives 32 callers, each with its own
// proxy, over one cached connection capped at 8 in-flight requests: the
// cap engages, never overflows, and every caller gets its own replies with
// no errors.
func TestInFlightCapSharedConnection(t *testing.T) {
	client, ref, _ := flowEnv(t)
	const callers, calls, limit = 32, 20, 8
	conn := capConn(t, client.Resolve(ref), limit)

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		obj := client.Resolve(ref)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				want := fmt.Sprintf("caller %d call %d", i, j)
				var got string
				err := obj.Invoke("echo",
					func(enc *cdr.Encoder) { enc.WriteString(want) },
					func(dec *cdr.Decoder) error {
						var err error
						got, err = dec.ReadString()
						return err
					})
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
				if got != want {
					t.Errorf("caller %d got reply %q, want %q", i, got, want)
					return
				}
				if n := conn.outstanding.Load(); n > limit {
					t.Errorf("%d requests outstanding, cap is %d", n, limit)
				}
				obj.mu.Lock()
				shared := obj.binding.conn == conn
				obj.mu.Unlock()
				if !shared {
					t.Errorf("caller %d bound a second connection", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if h, _ := client.Metrics().Snapshot().Histogram(mFlowWait); h.Count == 0 {
		t.Errorf("%s is empty: no caller waited at the cap", mFlowWait)
	}
}
