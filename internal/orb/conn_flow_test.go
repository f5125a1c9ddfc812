package orb

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cool/internal/giop"
	"cool/internal/transport"
)

// newTestConn dials an inproc pair and returns a client conn whose peer
// never answers (register-level tests don't need replies).
func newTestConn(t *testing.T, limit int) *clientConn {
	t.Helper()
	mgr := transport.NewInprocManager()
	ln, err := mgr.Listen("conn-flow-" + t.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		ch, err := ln.Accept()
		if err != nil {
			return
		}
		// Hold the peer open so the client read loop stays parked.
		t.Cleanup(func() { ch.Close() })
	}()
	ch, err := mgr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := newClientConn(ch, GIOPCodec{}, nil, nil, nil, limit)
	t.Cleanup(conn.close)
	return conn
}

// retire simulates a reply retiring one outstanding request: the pending
// entry leaves and the freed capacity is granted to the head waiter.
func retire(c *clientConn, id uint32) {
	c.mu.Lock()
	if slot, ok := c.pending[id]; ok {
		delete(c.pending, id)
		c.retiredLocked()
		_ = slot
	}
	c.mu.Unlock()
}

// TestRegisterSkipsPendingIDsOnWrap is the request-id wrap regression: with
// nextID about to wrap and the post-wrap ids still occupied by in-flight
// requests, register must skip every busy id instead of colliding.
func TestRegisterSkipsPendingIDsOnWrap(t *testing.T) {
	conn := newTestConn(t, maxInFlight)
	conn.nextID.Store(math.MaxUint32 - 1)

	// Occupy the ids the wrap will visit first: MaxUint32, 0, 1.
	conn.mu.Lock()
	for _, busy := range []uint32{math.MaxUint32, 0, 1} {
		conn.pending[busy] = &replySlot{ch: make(chan *giop.Message, 1)}
		conn.outstanding.Add(1)
	}
	conn.mu.Unlock()

	id, _, err := conn.register(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("register allocated id %d, want 2 (MaxUint32, 0, 1 are in flight)", id)
	}
	conn.mu.Lock()
	n := len(conn.pending)
	conn.mu.Unlock()
	if n != 4 {
		t.Fatalf("pending holds %d entries, want 4", n)
	}
}

// TestRegisterClosedFirst pins the closed-before-allocate order: a
// torn-down conn returns its recorded teardown error and burns no ids.
func TestRegisterClosedFirst(t *testing.T) {
	conn := newTestConn(t, maxInFlight)
	boom := errors.New("peer fell over")
	conn.teardown(boom)

	before := conn.nextID.Load()
	_, _, err := conn.register(context.Background(), time.Time{})
	if !errors.Is(err, boom) {
		t.Fatalf("register on closed conn = %v, want recorded %v", err, boom)
	}
	if after := conn.nextID.Load(); after != before {
		t.Fatalf("closed register burned ids: %d -> %d", before, after)
	}
}

// TestFlowControlFIFO fills the in-flight limit, queues three waiters in a
// known arrival order, and asserts admissions happen in exactly that order
// as replies retire capacity.
func TestFlowControlFIFO(t *testing.T) {
	conn := newTestConn(t, 2)

	var admitted [2]uint32
	for i := range admitted {
		id, _, err := conn.register(context.Background(), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		admitted[i] = id
	}

	type grant struct {
		order int
		id    uint32
		err   error
	}
	grants := make(chan grant, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			id, _, err := conn.register(context.Background(), time.Time{})
			grants <- grant{order: i, id: id, err: err}
		}()
		// Serialize arrivals so queue order is exactly 0, 1, 2.
		waitUntil(t, "waiter queued", func() bool {
			conn.mu.Lock()
			defer conn.mu.Unlock()
			return len(conn.waiters) == i+1
		})
	}

	for want := 0; want < 3; want++ {
		select {
		case g := <-grants:
			t.Fatalf("waiter %d admitted before any capacity freed (err=%v)", g.order, g.err)
		default:
		}
		retire(conn, admitted[0])
		g := <-grants
		if g.err != nil {
			t.Fatalf("waiter %d: %v", g.order, g.err)
		}
		if g.order != want {
			t.Fatalf("admission order: got waiter %d, want %d (FIFO)", g.order, want)
		}
		admitted[0] = g.id // the freshly admitted request is retired next
	}
}

// TestFlowControlContextCancel cancels a blocked registration: it must
// return ctx.Err(), leave the queue, and not consume the next free slot.
func TestFlowControlContextCancel(t *testing.T) {
	conn := newTestConn(t, 1)
	first, _, err := conn.register(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, _, err := conn.register(ctx, time.Time{})
		canceled <- err
	}()
	waitUntil(t, "waiter queued", func() bool {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(conn.waiters) == 1
	})
	// A second waiter queues behind the one about to cancel.
	got := make(chan uint32, 1)
	go func() {
		id, _, err := conn.register(context.Background(), time.Time{})
		if err != nil {
			t.Errorf("second waiter: %v", err)
		}
		got <- id
	}()
	waitUntil(t, "second waiter queued", func() bool {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(conn.waiters) == 2
	})

	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter = %v, want context.Canceled", err)
	}
	retire(conn, first)
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("surviving waiter was not admitted after the cancel")
	}
}

// TestFlowControlDeadline bounds a blocked registration by the absolute
// deadline.
func TestFlowControlDeadline(t *testing.T) {
	conn := newTestConn(t, 1)
	if _, _, err := conn.register(context.Background(), time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, _, err := conn.register(context.Background(), time.Now().Add(20*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked register past deadline = %v, want DeadlineExceeded", err)
	}
}

// TestFlowControlTeardownReleasesWaiters tears the conn down with waiters
// queued: each must unblock with the teardown error.
func TestFlowControlTeardownReleasesWaiters(t *testing.T) {
	conn := newTestConn(t, 1)
	if _, _, err := conn.register(context.Background(), time.Time{}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := conn.register(context.Background(), time.Time{})
			errs <- err
		}()
	}
	waitUntil(t, "waiters queued", func() bool {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(conn.waiters) == 2
	})
	conn.teardown(errors.New("going away"))
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "going away") {
			t.Fatalf("waiter released with %v, want teardown error", err)
		}
	}
}
