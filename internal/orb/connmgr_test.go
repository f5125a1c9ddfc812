package orb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cool/internal/ior"
	"cool/internal/transport"
)

// gateManager wraps a transport manager so tests can stall dials at a
// chosen point and count them.
type gateManager struct {
	transport.Manager
	mu    sync.Mutex
	dials int
	gate  chan struct{} // when non-nil, Dial blocks until it is closed
}

func (g *gateManager) Dial(addr string) (transport.Channel, error) {
	g.mu.Lock()
	g.dials++
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return g.Manager.Dial(addr)
}

func (g *gateManager) dialCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dials
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnManagerShutdownRace is the regression test for the getConn /
// Shutdown race: a dial that is in flight when the manager closes must not
// publish its connection into the swept cache — the caller gets
// errShutdown and the freshly dialed channel is closed, not leaked.
func TestConnManagerShutdownRace(t *testing.T) {
	inner := transport.NewInprocManager()
	lis, err := inner.Listen("cm-race")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	serverCh := make(chan transport.Channel, 1)
	go func() {
		if ch, err := lis.Accept(); err == nil {
			serverCh <- ch
		}
	}()

	g := &gateManager{Manager: inner, gate: make(chan struct{})}
	cm := newConnManager(transport.NewRegistry(g), newInstruments(), func(string) (Codec, error) { return GIOPCodec{}, nil })
	profile := ior.Profile{Transport: "inproc", Address: "cm-race"}

	res := make(chan error, 1)
	go func() {
		_, _, err := cm.get(context.Background(), profile, nil, "")
		res <- err
	}()
	waitUntil(t, "dial to start", func() bool { return g.dialCount() == 1 })
	cm.close()    // Shutdown sweeps the cache while the dial is blocked
	close(g.gate) // now let the dial complete

	if err := <-res; !errors.Is(err, errShutdown) {
		t.Fatalf("get during shutdown returned %v, want errShutdown", err)
	}

	// The freshly dialed connection must have been closed, not cached past
	// the shutdown sweep: the server side of the channel observes EOF.
	var ch transport.Channel
	select {
	case ch = <-serverCh:
	case <-time.After(2 * time.Second):
		t.Fatal("server never accepted the racing dial")
	}
	eof := make(chan error, 1)
	go func() {
		_, err := ch.ReadMessage()
		eof <- err
	}()
	select {
	case err := <-eof:
		if err == nil {
			t.Fatal("server read a message, want EOF from the closed dial")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dialed connection leaked past Shutdown: peer never saw a close")
	}
	ch.Close()
}

// TestConnManagerSingleFlightDial: concurrent invocations against a cold
// endpoint coalesce into one transport dial; every caller shares the
// resulting connection.
func TestConnManagerSingleFlightDial(t *testing.T) {
	inner := transport.NewInprocManager()
	lis, err := inner.Listen("cm-flight")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			if _, err := lis.Accept(); err != nil {
				return
			}
		}
	}()

	g := &gateManager{Manager: inner, gate: make(chan struct{})}
	cm := newConnManager(transport.NewRegistry(g), newInstruments(), func(string) (Codec, error) { return GIOPCodec{}, nil })
	defer cm.close()
	profile := ior.Profile{Transport: "inproc", Address: "cm-flight"}

	const callers = 8
	conns := make(chan *clientConn, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _, err := cm.get(context.Background(), profile, nil, "")
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			conns <- c
		}()
	}
	waitUntil(t, "first dial", func() bool { return g.dialCount() >= 1 })
	// Give the other callers time to queue on the in-flight dial, then let
	// it complete.
	time.Sleep(10 * time.Millisecond)
	close(g.gate)
	wg.Wait()
	close(conns)

	var shared *clientConn
	n := 0
	for c := range conns {
		if shared == nil {
			shared = c
		} else if c != shared {
			t.Fatal("callers got distinct connections")
		}
		n++
	}
	if n != callers {
		t.Fatalf("%d callers succeeded, want %d", n, callers)
	}
	if d := g.dialCount(); d != 1 {
		t.Fatalf("dials = %d, want 1 (single-flight)", d)
	}
}

// TestConnManagerDialCancel: a context cancelled while waiting on another
// caller's dial returns promptly with the context error.
func TestConnManagerDialCancel(t *testing.T) {
	inner := transport.NewInprocManager()
	lis, err := inner.Listen("cm-cancel")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			if _, err := lis.Accept(); err != nil {
				return
			}
		}
	}()

	g := &gateManager{Manager: inner, gate: make(chan struct{})}
	cm := newConnManager(transport.NewRegistry(g), newInstruments(), func(string) (Codec, error) { return GIOPCodec{}, nil })
	profile := ior.Profile{Transport: "inproc", Address: "cm-cancel"}

	owner := make(chan error, 1)
	go func() {
		_, _, err := cm.get(context.Background(), profile, nil, "")
		owner <- err
	}()
	waitUntil(t, "dial to start", func() bool { return g.dialCount() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, _, err := cm.get(ctx, profile, nil, "")
		waiter <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter join the dial
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter stuck on a foreign dial")
	}

	close(g.gate)
	if err := <-owner; err != nil {
		t.Fatalf("dial owner: %v", err)
	}
	cm.close()
}
