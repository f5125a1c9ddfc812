package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/giop"
	"cool/internal/obs"
	"cool/internal/qos"
	"cool/internal/transport"
)

// errConnClosed reports an operation on a torn-down client connection.
var errConnClosed = errors.New("orb: connection closed")

// maxFreeSlots bounds the per-connection reply-slot freelist.
const maxFreeSlots = 64

// maxInFlight is the per-connection outstanding-request limit: generous
// enough that ordinary fan-out never blocks, low enough that a stalled
// server cannot make the pending map (and the retransmission state behind
// it) grow without bound.
const maxInFlight = 4096

// replySlot is a reusable single-reply mailbox. The channel has capacity 1
// and receives at most one message per registration (route deletes the
// pending entry and sends inside the same critical section), so a send
// never blocks and a recycled slot never carries a stale reply.
type replySlot struct {
	ch chan *giop.Message
}

// flowWaiter is one registration blocked on the in-flight limit. Waiters
// are admitted strictly in arrival order: the waker (whoever shrinks the
// pending map) performs the id/slot allocation on the head waiter's behalf
// under c.mu, so a newly arriving caller can never jump the queue between
// wakeup and re-acquisition of the lock.
type flowWaiter struct {
	ready   chan struct{} // closed once granted (or failed)
	id      uint32
	slot    *replySlot
	err     error
	granted bool
}

// clientConn multiplexes concurrent requests over one transport channel:
// a background reader routes Reply messages to their callers by request id,
// writes leave through a flush-coalescing frameWriter, and registrations
// beyond the in-flight limit block in FIFO order until a reply retires an
// outstanding request.
type clientConn struct {
	ch      transport.Channel
	codec   Codec
	granted qos.Set
	ins     *instruments // may be nil in unit tests
	w       *frameWriter
	limit   int // max in-flight registrations (maxInFlight outside tests)

	nextID atomic.Uint32

	// outstanding mirrors len(pending) for lock-free reads (the writer's
	// gather hint); pending itself stays under mu.
	outstanding atomic.Int32

	mu      sync.Mutex
	pending map[uint32]*replySlot
	waiters []*flowWaiter
	free    []*replySlot
	err     error
	closed  bool
	done    chan struct{}
}

func newClientConn(ch transport.Channel, codec Codec, granted qos.Set, ins *instruments, limit int) *clientConn {
	c := &clientConn{
		ch:      ch,
		codec:   codec,
		granted: granted,
		ins:     ins,
		limit:   limit,
		pending: make(map[uint32]*replySlot),
		done:    make(chan struct{}),
	}
	var sizeH *obs.Histogram
	if ins != nil {
		sizeH = ins.clientFlushBatch
	}
	c.w = newFrameWriter(ch, sizeH, func() int { return int(c.outstanding.Load()) }, func(err error) {
		c.teardown(fmt.Errorf("%w: %v", errConnClosed, err))
	})
	go c.readLoop()
	return c
}

// readLoop drains replies for the whole connection; every reply crosses
// it once.
//
//coollint:hotpath client reply path
func (c *clientConn) readLoop() {
	for {
		frame, err := c.ch.ReadMessage()
		if err != nil {
			c.teardown(fmt.Errorf("%w: %v", errConnClosed, err))
			return
		}
		m, err := c.codec.UnmarshalPooled(frame)
		if err != nil {
			transport.PutBuffer(frame)
			c.teardown(fmt.Errorf("orb: bad frame from server: %w", err))
			return
		}
		if c.ins != nil {
			c.ins.msgIn(m.Header.Type, len(frame))
		}
		switch m.Header.Type {
		case giop.MsgReply:
			c.route(m.Reply.RequestID, m)
		case giop.MsgLocateReply:
			c.route(m.LocateReply.RequestID, m)
		case giop.MsgCloseConnection:
			c.codec.ReleaseMessage(m)
			c.teardown(errConnClosed)
			return
		case giop.MsgMessageError:
			c.codec.ReleaseMessage(m)
			c.teardown(errors.New("orb: server reported a GIOP message error")) //coollint:allocok connection teardown, once per connection
			return
		default:
			// Requests flowing to a client are a protocol violation. Read
			// the type before the release: the recycled message may be
			// repopulated by another connection concurrently.
			t := m.Header.Type
			c.codec.ReleaseMessage(m)
			c.teardown(fmt.Errorf("orb: unexpected %v from server", t)) //coollint:allocok connection teardown, once per connection
			return
		}
	}
}

// route delivers a reply to its registered slot. Lookup, delete, and send
// happen under c.mu: after unregister (also under c.mu) returns, no send
// into the slot is possible, which is what makes slot recycling and
// cancellation race-free. Replies without a waiter are counted as orphans
// and recycled.
func (c *clientConn) route(id uint32, m *giop.Message) {
	c.mu.Lock()
	slot, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
		c.retiredLocked()
		slot.ch <- m //coollint:allow lockhold -- cap 1, one send per registration: never blocks
	}
	closed := c.closed
	c.mu.Unlock()
	if !ok {
		if !closed && c.ins != nil {
			c.ins.orphanReply()
		}
		c.codec.ReleaseMessage(m)
	}
}

func (c *clientConn) teardown(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	if n := len(c.pending); n > 0 {
		c.outstanding.Add(int32(-n))
		if c.ins != nil {
			c.ins.inflight.Add(-int64(n))
		}
	}
	c.pending = nil
	waiters := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	for _, fw := range waiters {
		fw.err = err
		close(fw.ready)
	}
	close(c.done)
	c.w.fail(err)
	c.ch.Close()
}

func (c *clientConn) close() { c.teardown(errConnClosed) }

func (c *clientConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// errNow returns the teardown error (errConnClosed if none recorded yet).
func (c *clientConn) errNow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errConnClosed
}

// register allocates a request id and a reply slot (reused from the
// freelist when possible). The closed check runs before any id is drawn so
// a torn-down connection neither burns ids nor loses its recorded teardown
// error. When the connection is at its in-flight limit (or earlier arrivals
// are already queued — FIFO), register blocks until a reply retires an
// outstanding request, honouring ctx and the absolute deadline (zero means
// none).
func (c *clientConn) register(ctx context.Context, deadline time.Time) (uint32, *replySlot, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errConnClosed
		}
		return 0, nil, err
	}
	if len(c.pending) >= c.limit || len(c.waiters) > 0 {
		fw := &flowWaiter{ready: make(chan struct{})} //coollint:allocok only under max-in-flight backpressure, already off the fast path
		c.waiters = append(c.waiters, fw)
		c.mu.Unlock()
		return c.waitAdmission(ctx, deadline, fw)
	}
	id, slot := c.admitLocked()
	c.mu.Unlock()
	return id, slot, nil
}

// admitLocked draws a fresh request id — skipping any id still pending, so
// a wrap of the uint32 space on a long-lived pipelined connection cannot
// collide two in-flight requests — and registers a reply slot for it.
// Caller holds c.mu.
func (c *clientConn) admitLocked() (uint32, *replySlot) {
	var id uint32
	for {
		id = c.nextID.Add(1)
		if _, busy := c.pending[id]; !busy {
			break
		}
	}
	var slot *replySlot
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		slot = &replySlot{ch: make(chan *giop.Message, 1)} //coollint:allocok freelist miss; slots recycle for the connection lifetime
	}
	c.pending[id] = slot //coollint:allocok bucket reuse: ids retire as fast as they admit, the map stops growing at the in-flight high-water mark
	c.outstanding.Add(1)
	if c.ins != nil {
		c.ins.inflight.Inc()
	}
	return id, slot
}

// retiredLocked records one request leaving the pending map and hands the
// freed capacity to the longest-waiting blocked registration, if any.
// Caller holds c.mu and has already deleted the pending entry.
func (c *clientConn) retiredLocked() {
	c.outstanding.Add(-1)
	if c.ins != nil {
		c.ins.inflight.Dec()
	}
	c.admitNextLocked()
}

// admitNextLocked grants queued waiters while capacity remains. Allocation
// happens here, on the waker's goroutine, so admission order is exactly
// arrival order. Caller holds c.mu.
func (c *clientConn) admitNextLocked() {
	for len(c.waiters) > 0 && len(c.pending) < c.limit {
		fw := c.waiters[0]
		c.waiters[0] = nil
		c.waiters = c.waiters[1:]
		if len(c.waiters) == 0 {
			c.waiters = nil
		}
		fw.id, fw.slot = c.admitLocked()
		fw.granted = true
		close(fw.ready)
	}
}

// waitAdmission blocks a registration queued behind the in-flight limit.
// On cancellation it removes itself from the queue — or, when the grant
// raced the cancel, gives the freshly allocated id back so the next waiter
// is admitted.
func (c *clientConn) waitAdmission(ctx context.Context, deadline time.Time, fw *flowWaiter) (uint32, *replySlot, error) {
	var start time.Time
	if c.ins != nil {
		start = time.Now()
	}
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			c.abandonWaiter(fw)
			return 0, nil, context.DeadlineExceeded
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-fw.ready:
		if c.ins != nil {
			c.ins.flowWait.Observe(uint64(time.Since(start).Microseconds()))
		}
		if fw.err != nil {
			return 0, nil, fw.err
		}
		return fw.id, fw.slot, nil
	case <-ctx.Done():
		c.abandonWaiter(fw)
		return 0, nil, ctx.Err()
	case <-timeout:
		c.abandonWaiter(fw)
		return 0, nil, context.DeadlineExceeded
	}
}

// abandonWaiter withdraws a cancelled waiter. If the grant already landed,
// the allocated registration is returned (and the next waiter admitted);
// otherwise the waiter is unlinked from the queue.
func (c *clientConn) abandonWaiter(fw *flowWaiter) {
	c.mu.Lock()
	if fw.granted {
		if _, ok := c.pending[fw.id]; ok {
			delete(c.pending, fw.id)
			c.retiredLocked()
		}
		slot := fw.slot
		c.mu.Unlock()
		c.releaseSlot(slot)
		return
	}
	for i, q := range c.waiters {
		if q == fw {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// unregister abandons a pending request (cancel path). After it returns no
// further reply can be delivered into the request's slot.
func (c *clientConn) unregister(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; ok {
		delete(c.pending, id)
		c.retiredLocked()
	}
}

// releaseSlot recycles a slot. Callers must guarantee exclusive ownership:
// the slot is unregistered (consumed or cancelled) and no other goroutine
// is selecting on it — which is why only the synchronous invoke/locate
// paths pool slots, while deferred Pendings (whose slots may have
// concurrent Wait/Poll/Cancel observers) let theirs be garbage collected.
func (c *clientConn) releaseSlot(slot *replySlot) {
	select {
	case m := <-slot.ch:
		c.codec.ReleaseMessage(m) // stale reply from a raced teardown drain
	default:
	}
	c.mu.Lock()
	if len(c.free) < maxFreeSlots {
		c.free = append(c.free, slot)
	}
	c.mu.Unlock()
}

// send hands a frame to the connection's flush-coalescing writer, which
// takes ownership: the frame is recycled to the shared arena after the
// (possibly batched) transport write. Every frame handed to send is
// one-shot (marshalled for this call); callers must not touch it
// afterwards. A write failure tears the connection down via the writer's
// error hook — send may return nil for a frame that later fails inside
// another caller's batch, in which case the failure surfaces to the waiter
// through teardown.
//
//coollint:hotpath frame hand-off into the write combiner
func (c *clientConn) send(frame []byte) error {
	return c.w.send(frame)
}

// awaitCtx is the one wait for the reply to a registered request. It
// returns when the reply lands, the connection is torn down, the context is
// done, the absolute deadline passes (zero means none; a non-zero deadline
// arms a timer, so the unbounded hot path stays allocation-free) or stop
// closes (a nil stop never does). Expiry returns context.DeadlineExceeded
// and a closed stop returns (nil, nil); the caller owns unregistering the
// request and recycling the slot.
func (c *clientConn) awaitCtx(ctx context.Context, deadline time.Time, slot *replySlot, stop <-chan struct{}) (*giop.Message, error) {
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return nil, context.DeadlineExceeded
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case m := <-slot.ch:
		return m, nil
	case <-c.done:
		return c.lastReply(slot)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timeout:
		return nil, context.DeadlineExceeded
	case <-stop:
		return nil, nil
	}
}

// lastReply settles a request on a torn-down connection: a reply that was
// routed before the connection died (route's critical section happens
// before close(done)), else the teardown error.
func (c *clientConn) lastReply(slot *replySlot) (*giop.Message, error) {
	select {
	case m := <-slot.ch:
		return m, nil
	default:
		return nil, c.errNow()
	}
}
