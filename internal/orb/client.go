package orb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/bufpool"
	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/ior"
	"cool/internal/obs"
	"cool/internal/qos"
	"cool/internal/transport"
)

// ErrNoUsableProfile reports that no profile of the reference can satisfy
// the requested QoS (the binding-time counterpart of the NACK).
var ErrNoUsableProfile = errors.New("orb: no profile satisfies the requested QoS")

// ErrCanceled reports Wait on a cancelled deferred invocation.
var ErrCanceled = errors.New("orb: request was canceled")

// Backoff schedule for retry-safe failures (see retryableError): capped
// exponential with ±25% jitter.
const (
	maxRetries = 6
	retryBase  = 20 * time.Millisecond
	retryCap   = 500 * time.Millisecond
)

// retryDelay returns the backoff before retry attempt (zero-based).
func retryDelay(attempt int) time.Duration {
	d := retryBase << attempt
	if d > retryCap {
		d = retryCap
	}
	return d - d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// timeoutError surfaces a deadline expiry both as the CORBA TIMEOUT
// system exception (errors.As) and as context.DeadlineExceeded
// (errors.Is), so callers on either idiom recognise it.
type timeoutError struct{ exc *giop.SystemException }

func (e *timeoutError) Error() string { return e.exc.Error() }
func (e *timeoutError) Unwrap() []error {
	return []error{error(e.exc), context.DeadlineExceeded}
}

// deadlineFor merges the context deadline with the binding's round-trip
// bound (see rttBound) counted from start, the time the request was
// issued. The zero time means unbounded.
func deadlineFor(ctx context.Context, b *binding, start time.Time) time.Time {
	var dl time.Time
	if d := b.rttBound(); d > 0 {
		dl = start.Add(d)
	}
	if cdl, ok := ctx.Deadline(); ok && (dl.IsZero() || cdl.Before(dl)) {
		dl = cdl
	}
	return dl
}

// Object is a client proxy for a remote (or colocated) object: the
// hand-rolled equivalent of what generated stubs wrap. Generated stubs
// (cmd/chic) delegate to Invoke/InvokeOneway and re-export
// SetQoSParameter, matching the paper's extended Chic templates (§4.1).
type Object struct {
	orb *ORB

	mu       sync.Mutex
	ref      ior.Ref
	req      qos.Set
	binding  *binding
	explicit bool

	colocatedID atomic.Uint32
}

// binding is an established path to the object implementation. Its QoS
// snapshot (reqQoS, qosFrag) is immutable for the binding's lifetime:
// SetQoSParameter drops the whole binding, so per-invocation requests
// reuse the snapshot without cloning or re-encoding.
type binding struct {
	colocated bool
	conn      *clientConn
	codec     Codec
	profile   ior.Profile
	granted   qos.Set
	// reqKey identifies the connection-cache slot this binding uses.
	reqKey string
	// reqQoS is the QoS requirement snapshot taken at bind time. It must
	// not be mutated: request headers alias it on the invocation hot path.
	reqQoS qos.Set
	// qosFrag is reqQoS pre-encoded by qos.EncodeSet from a 4-aligned
	// origin, spliced into GIOP 9.9 Request headers instead of re-encoding
	// the set on every call. nil for empty QoS or non-GIOP codecs.
	qosFrag []byte
}

// rttBound is the binding's round-trip QoS delay bound: a Latency
// parameter is a one-way bound in microseconds, so a two-way invocation is
// granted twice that. Zero means unbounded.
func (b *binding) rttBound() time.Duration {
	return 2 * time.Duration(b.reqQoS.Value(qos.Latency, 0)) * time.Microsecond
}

// Ref returns the object reference the proxy currently uses.
func (o *Object) Ref() ior.Ref {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ref
}

// SetQoSParameter states the client's QoS requirements for subsequent
// invocations, turning the implicit binding into an explicit one (§4.1).
// Calling it once yields per-binding QoS; calling it before every
// invocation yields per-method QoS. A nil set returns to standard GIOP.
//
// The binding itself is (re-)established lazily at the next invocation, as
// in COOL, so an unsatisfiable requirement surfaces as an exception there.
// Dropping the binding also invalidates its cached qos_params encoding.
func (o *Object) SetQoSParameter(params qos.Set) error {
	if err := params.Validate(); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.req.Equal(params) && o.binding != nil {
		return nil // unchanged: keep the binding
	}
	o.req = params.Clone()
	o.explicit = true
	o.binding = nil // force re-negotiation on next use
	return nil
}

// QoS returns the currently requested QoS set.
func (o *Object) QoS() qos.Set {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.req.Clone()
}

// GrantedQoS returns the QoS granted by the transport for the current
// binding (nil when unbound or plain GIOP).
func (o *Object) GrantedQoS() qos.Set {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.binding == nil {
		return nil
	}
	return o.binding.granted.Clone()
}

// Colocated reports whether the current binding short-circuits through the
// local object adapter. It binds if necessary.
func (o *Object) Colocated() (bool, error) {
	b, err := o.bind(context.Background())
	if err != nil {
		return false, err
	}
	return b.colocated, nil
}

// encodeQoSFrag renders s in its GIOP wire form starting from a 4-aligned
// origin (the encoding holds only 4-byte values, so it is valid at any
// 4-aligned splice point).
//
//coollint:coldpath encoded once per binding, cached as QoSFrag
func encodeQoSFrag(s qos.Set) []byte {
	enc := cdr.AcquireEncoder(cdr.BigEndian)
	qos.EncodeSet(enc, s)
	frag := append([]byte(nil), enc.Bytes()...)
	cdr.ReleaseEncoder(enc)
	return frag
}

// bind establishes (or reuses) the binding for the current QoS
// requirements: profile selection, colocation check, connection setup
// (through the connection manager) with unilateral transport negotiation.
// The context bounds the dial.
func (o *Object) bind(ctx context.Context) (*binding, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if b := o.binding; b != nil && (b.colocated || !b.conn.isClosed()) {
		return b, nil
	}
	profile, ok := o.ref.Select(o.req)
	if !ok {
		return nil, fmt.Errorf("%w: %v for %v", ErrNoUsableProfile, o.req, o.ref)
	}
	codec, err := o.orb.codec(profile.Protocol)
	if err != nil {
		return nil, err
	}
	reqQoS := o.req.Clone()
	var frag []byte
	if len(reqQoS) > 0 && codec.Name() == "giop" {
		frag = encodeQoSFrag(reqQoS)
	}
	if o.orb.isLocal(profile) {
		b := &binding{colocated: true, codec: codec, profile: profile, //coollint:allocok one binding per (re)bind, cached on the proxy
			granted: o.req.Clone(), reqQoS: reqQoS, qosFrag: frag}
		o.binding = b
		return b, nil
	}
	conn, granted, err := o.orb.cm.get(ctx, profile, o.req) //coollint:allow lockhold -- o.mu serializes binding per proxy by design; the dial is ctx-bounded and cm.get takes no lock that can reach o.mu
	if err != nil {
		o.recordNegotiation(profile, "bind_failure", err.Error())
		return nil, err
	}
	b := &binding{conn: conn, codec: codec, profile: profile, granted: granted, //coollint:allocok one binding per (re)bind, cached on the proxy
		reqKey: o.req.Key(), reqQoS: reqQoS, qosFrag: frag}
	o.binding = b
	result := "ack"
	if !granted.Equal(o.req) {
		result = "downgrade"
	}
	detail := ""
	if o.orb.ins.tracer.Enabled() {
		detail = o.req.String() + " -> " + granted.String()
	}
	o.recordNegotiation(profile, result, detail)
	return b, nil
}

// recordNegotiation counts and emits the outcome of the unilateral
// (client↔transport) QoS negotiation performed at binding time. Bindings
// without QoS requirements are plain GIOP and not negotiation outcomes.
func (o *Object) recordNegotiation(profile ior.Profile, result, detail string) {
	if len(o.req) == 0 {
		return
	}
	o.orb.ins.qosOutcome(mClientQoS, result)
	o.orb.ins.tracer.Emit(obs.Event{
		Kind:    "qos.negotiation",
		Name:    profile.Transport + "://" + profile.Address,
		Outcome: result,
		Detail:  detail,
	})
}

// abortBinding tears the binding down after a QoS NACK: the negotiated
// transport connection is useless for this QoS, so it is closed and its
// resources released ("the operation will be aborted if the requested QoS
// cannot be supported", Figure 4).
func (o *Object) abortBinding(b *binding) {
	o.invalidate()
	if b == nil || b.colocated {
		return
	}
	o.orb.cm.drop(b.profile, b.reqKey, b.conn)
}

// invalidate drops the cached binding (after connection loss or forward).
func (o *Object) invalidate() {
	o.mu.Lock()
	o.binding = nil
	o.mu.Unlock()
}

// reqHdrPool recycles Request headers so the steady-state invocation path
// does not allocate one per call (the header escapes through the Codec
// interface and would otherwise be heap-allocated). The reset drops the
// binding's and caller's slices and keeps the service-context storage.
var reqHdrPool = bufpool.NewPool(func(h *giop.RequestHeader) {
	h.ObjectKey, h.QoS, h.QoSFrag, h.Principal = nil, nil, nil, nil
})

// buildRequest marshals a Request frame for the bound profile. The codec
// carries qos_params whenever requirements are set (GIOP splices the
// binding's pre-encoded fragment and switches to 9.9, the COOL protocol to
// its QoS-extended framing). The returned frame is pooled: conn.send (or
// dispatchColocated) recycles it.
func (o *Object) buildRequest(b *binding, id uint32, op string, expectReply bool, span obs.Span, args func(*cdr.Encoder)) ([]byte, error) {
	hdr := reqHdrPool.Get()
	hdr.RequestID = id
	hdr.ResponseExpected = expectReply
	hdr.ObjectKey = b.profile.ObjectKey
	hdr.Operation = op
	hdr.QoS = b.reqQoS
	hdr.QoSFrag = b.qosFrag
	hdr.Principal = o.orb.principal
	if o.orb.ins.tracer.Enabled() && !span.Trace.IsZero() {
		// Carry the trace context so the server-side span joins this trace.
		// Codecs without service-context support (coolproto) drop it. Only
		// attached when an observer is installed: otherwise nothing reads
		// it and the encoding would be pure overhead.
		hdr.ServiceContext = append(hdr.ServiceContext[:0],
			hdr.TraceSC(uint64(span.Trace), uint64(span.ID)))
	} else {
		hdr.ServiceContext = hdr.ServiceContext[:0]
	}
	frame, err := boundFrame(b.codec.MarshalRequest(hdr, args))
	reqHdrPool.Put(hdr)
	return frame, err
}

// call is one issued request: the binding it left on, its metric handles
// and span, and — for a remote two-way request — its id and registered
// reply slot (nil for oneway and colocated requests). The synchronous path
// keeps it on the stack; a Pending embeds it.
type call struct {
	o     *Object
	b     *binding
	stats *clientOp
	span  obs.Span
	id    uint32
	slot  *replySlot
	// recorded makes record run once: concurrent Waits on one Pending all
	// finish the same call.
	recorded atomic.Bool
}

// record finishes the call's observability, once: end-to-end latency
// (with the span's trace ID as the bucket exemplar) into the per-operation
// histogram, the client span's outcome, and — when the call exceeded its
// slow bound — a structured slow-call record. It reports whether this was
// the first record. The within-bound path adds no allocations over the
// plain histogram update.
func (c *call) record(outcome, detail string) bool {
	if c.recorded.Swap(true) {
		return false
	}
	elapsed := time.Since(c.span.Start)
	c.stats.latency.ObserveDurationTrace(elapsed, c.span.Trace)
	c.span.End(outcome, detail)
	ins := c.o.orb.ins
	if bound := ins.clientSlowBound(c.b); bound > 0 && elapsed > bound {
		sc := obs.SlowCall{
			Side: "client", Op: c.stats.op,
			Bound: bound, Dur: elapsed, Trace: c.span.Trace,
		}
		if !c.b.colocated {
			sc.Peer = c.b.profile.Transport + "://" + c.b.profile.Address
		} else {
			sc.Peer = "colocated"
		}
		if len(c.b.reqQoS) > 0 {
			sc.QoS = c.b.reqQoS.String()
		}
		ins.slowCall(sc)
	}
	return true
}

// classifyOutcome maps a decoded reply error onto the span outcome
// vocabulary and flags QoS NACKs.
func classifyOutcome(err error) (outcome, detail string, nack bool) {
	if err == nil {
		return "ok", "", false
	}
	var se *giop.SystemException
	if errors.As(err, &se) {
		if se.IsNACK() {
			return "nack", se.Name(), true
		}
		return "error", se.Name(), false
	}
	var ue *giop.UserException
	if errors.As(err, &ue) {
		return "user_exception", ue.ID, false
	}
	var fwd *forwardError
	if errors.As(err, &fwd) {
		return "forward", "", false
	}
	return "error", err.Error(), false
}

// ctxDone reports whether err is the expiry of a context or deadline
// rather than a connection failure.
func ctxDone(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// issue is the request half of every invocation mode: bind, count the call
// and open its span, then either dispatch a colocated request inline —
// returning its reply (nil for a oneway) — or register a two-way request
// (a oneway only draws an id), marshal it into a pooled frame and hand it
// to the connection. Registration fails the same way for every mode: an
// expired deadline is a TIMEOUT counted in orb.client.deadline_exceeded, a
// cancellation returns ctx.Err(), and a closed connection invalidates the
// binding and is retryable (nothing was sent). A failed issue has recorded
// the call.
//
// issue hands back a pooled message, so hotalloc treats it as a pool entry
// point and does not follow it from invokeOnce; it is a root of its own.
//
//coollint:hotpath request half of the client invocation spine
func (o *Object) issue(ctx context.Context, c *call, op string, args func(*cdr.Encoder), expectReply bool) (*giop.Message, error) {
	b, err := o.bind(ctx)
	if err != nil {
		return nil, err
	}
	ins := o.orb.ins
	c.o, c.b, c.stats = o, b, ins.client(op)
	c.stats.calls.Inc()
	c.span = ins.tracer.StartSpan(c.stats.spanName)

	if b.colocated {
		frame, err := o.buildRequest(b, o.colocatedID.Add(1), op, expectReply, c.span, args)
		if err != nil {
			c.record("error", "marshal failed")
			return nil, err
		}
		reply, err := o.orb.dispatchColocated(ctx, b.codec, frame)
		if err != nil {
			c.record("error", err.Error())
			return nil, err
		}
		if reply == nil {
			return nil, nil // oneway
		}
		m, err := b.codec.UnmarshalPooled(reply)
		if err != nil {
			transport.PutBuffer(reply)
			c.record("error", err.Error())
			return nil, err
		}
		return m, nil
	}

	if expectReply {
		c.id, c.slot, err = b.conn.register(ctx, deadlineFor(ctx, b, c.span.Start))
		if err != nil {
			if ctxDone(err) {
				// Admission backpressure outlasted the caller's deadline or
				// saw its cancellation; the connection is healthy.
				return nil, c.stopped(err)
			}
			// The connection died between bind and register; nothing was
			// sent, so the attempt is safe to retry on a fresh connection.
			o.invalidate()
			c.record("error", "connection closed")
			return nil, &retryableError{err: err}
		}
	} else {
		c.id = b.conn.nextID.Add(1)
	}
	frame, err := o.buildRequest(b, c.id, op, expectReply, c.span, args)
	if err != nil {
		c.abandon()
		c.record("error", "marshal failed")
		return nil, err
	}
	flen := len(frame)
	if err := b.conn.send(frame); err != nil {
		c.abandon()
		o.invalidate()
		c.record("error", "send failed")
		return nil, err
	}
	ins.msgOut(giop.MsgRequest, flen)
	return nil, nil
}

// abandon withdraws a registration whose slot the caller owns outright
// (no Pending holds it) and recycles the slot.
func (c *call) abandon() {
	if c.slot != nil {
		c.b.conn.unregister(c.id)
		c.b.conn.releaseSlot(c.slot)
	}
}

// timeout counts a deadline expiry and returns it as TIMEOUT.
func (c *call) timeout() error {
	c.o.orb.ins.deadlineExceeded.Inc()
	return &timeoutError{exc: giop.TimeoutException()}
}

// stopped ends a call whose context or deadline expired before its reply:
// an expired deadline is a TIMEOUT, a cancellation returns err.
func (c *call) stopped(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		c.record("deadline_exceeded", "")
		return c.timeout()
	}
	c.record("canceled", "")
	return err
}

// finish is the reply half of every invocation mode: decode the settled
// reply m (or take the connection failure err) into out, recycle m when
// the caller owns it (release), classify the outcome, abort the binding on
// a QoS NACK, and record the call. Only the first finish of a call has
// side effects; a repeated Wait on a Pending just decodes again.
func (c *call) finish(m *giop.Message, err error, out func(*cdr.Decoder) error, release bool) error {
	if err != nil {
		if c.record("error", err.Error()) {
			c.o.invalidate()
		}
		return err
	}
	if m == nil {
		c.record("ok", "") // oneway completion
		return nil
	}
	if m.Reply == nil {
		err = fmt.Errorf("orb: expected Reply, got %v", m.Header.Type) //coollint:allocok protocol violation; the connection is about to fail
	} else {
		err = decodeReply(m, out)
	}
	if release {
		c.b.codec.ReleaseMessage(m)
	}
	outcome, detail, nack := classifyOutcome(err)
	if c.record(outcome, detail) && nack {
		c.o.orb.ins.qosOutcome(mClientQoS, "nack")
		c.o.abortBinding(c.b)
	}
	return err
}

// invokeOnce performs one synchronous two-way attempt: issue, wait on the
// pooled reply slot, recycle the slot, finish. The steady-state path
// allocates nothing and crosses no extra goroutines beyond the
// connection's reader. The context (and the QoS delay bound, see
// deadlineFor) bounds the dial, admission and the wait for the reply.
//
//coollint:hotpath client invocation spine
func (o *Object) invokeOnce(ctx context.Context, op string, args func(*cdr.Encoder), out func(*cdr.Decoder) error) error {
	var c call
	m, err := o.issue(ctx, &c, op, args, true)
	if err != nil {
		return err
	}
	if c.slot != nil {
		m, err = c.b.conn.awaitCtx(ctx, deadlineFor(ctx, c.b, c.span.Start), c.slot, nil)
		if err != nil {
			c.abandon()
			if ctxDone(err) {
				// The connection is healthy — only this invocation is
				// abandoned. Tell the server to suppress the reply (best
				// effort); a late one is counted as an orphan by route.
				_ = o.sendCancel(c.b, c.id)
				return c.stopped(err)
			}
		} else {
			c.b.conn.releaseSlot(c.slot)
		}
	}
	return c.finish(m, err, out, true)
}

// sendCancel tells the server to suppress the reply of an abandoned
// request.
func (o *Object) sendCancel(b *binding, id uint32) error {
	frame, err := b.codec.MarshalCancelRequest(id)
	if err != nil {
		return err
	}
	flen := len(frame)
	if err := b.conn.send(frame); err != nil {
		return err
	}
	o.orb.ins.msgOut(giop.MsgCancelRequest, flen)
	return nil
}

// start issues a two-way request and returns a future for its reply.
// Futures are goroutine-free: WaitCtx waits on the registered reply slot
// through the connection's awaitCtx. A colocated request is dispatched by
// issue, so its Pending is born resolved. The context bounds the dial,
// admission and the colocated dispatch; waiting for the reply is bounded
// by the context handed to WaitCtx.
func (o *Object) start(ctx context.Context, op string, args func(*cdr.Encoder)) (*Pending, error) {
	p := new(Pending)
	m, err := o.issue(ctx, &p.call, op, args, true) //coollint:owner a colocated reply stays with the Pending for its lifetime
	if err != nil {
		return nil, err
	}
	if p.slot == nil {
		p.settled, p.reply = true, m
	} else {
		p.resolved = make(chan struct{})
	}
	return p, nil
}

// decodeReply maps a Reply message onto the caller's decoder or an error.
// Everything returned to the caller is copied out of the message, so the
// message (and its frame) may be recycled as soon as decodeReply returns.
func decodeReply(m *giop.Message, out func(*cdr.Decoder) error) error {
	switch m.Reply.Status {
	case giop.ReplyNoException:
		if out == nil {
			return nil
		}
		return out(m.BodyDecoder())
	case giop.ReplySystemException:
		exc, err := giop.DecodeSystemException(m.BodyDecoder())
		if err != nil {
			return fmt.Errorf("orb: undecodable system exception: %w", err)
		}
		return exc
	case giop.ReplyUserException:
		return decodeUserException(m.BodyDecoder())
	case giop.ReplyLocationForward:
		return decodeForward(m.BodyDecoder())
	default:
		return fmt.Errorf("orb: unknown reply status %v", m.Reply.Status)
	}
}

// decodeUserException copies a USER_EXCEPTION reply body out of the
// pooled frame. A user exception is a failure outcome; its deep copies
// are off the steady-state reply path.
//
//coollint:coldpath user-exception replies are failure outcomes
func decodeUserException(dec *cdr.Decoder) error {
	id, err := dec.ReadString()
	if err != nil {
		return fmt.Errorf("orb: undecodable user exception: %w", err)
	}
	data, err := dec.ReadOctetSeq()
	if err != nil {
		return fmt.Errorf("orb: undecodable user exception body: %w", err)
	}
	return &giop.UserException{ID: id, Data: append([]byte(nil), data...)}
}

// decodeForward copies a LOCATION_FORWARD target out of the pooled frame.
// A forward triggers a rebind, so its copies amortize over the new
// binding's calls.
//
//coollint:coldpath forwards trigger a rebind, not a per-call event
func decodeForward(dec *cdr.Decoder) error {
	ref, err := ior.Decode(dec)
	if err != nil {
		return fmt.Errorf("orb: undecodable forward reference: %w", err)
	}
	// Deep-copy the object keys: they alias the reply frame, which is
	// recycled once this reply is released.
	for i := range ref.Profiles {
		ref.Profiles[i].ObjectKey = append([]byte(nil), ref.Profiles[i].ObjectKey...)
	}
	return &forwardError{ref: ref}
}

// forwardError carries a LOCATION_FORWARD target internally.
type forwardError struct{ ref ior.Ref }

func (e *forwardError) Error() string { return "orb: location forward" }

// Invoke performs a synchronous two-way invocation (the `call` mode of
// §5.2): marshal, send, wait for the Reply, unmarshal. out may be nil for
// void results; QoS NACKs surface as *giop.SystemException with
// IsNACK() == true. It is InvokeCtx with no context: only a QoS Latency
// requirement bounds it.
func (o *Object) Invoke(op string, args func(*cdr.Encoder), out func(*cdr.Decoder) error) error {
	return o.InvokeCtx(context.Background(), op, args, out)
}

// InvokeCtx is Invoke governed by a context. The earlier of the context
// deadline and the binding's QoS delay bound (2× the one-way Latency
// parameter, covering the round trip) bounds the invocation; expiry
// surfaces as a CORBA TIMEOUT system exception that also matches
// errors.Is(err, context.DeadlineExceeded). Retry-safe failures — dial
// errors and requests that raced a connection teardown before being
// sent — are retried with capped exponential backoff and jitter,
// transparently re-dialling a broken connection without a new proxy or
// explicit rebind; anything that may have reached the servant is
// at-most-once and never retried.
func (o *Object) InvokeCtx(ctx context.Context, op string, args func(*cdr.Encoder), out func(*cdr.Decoder) error) error {
	const maxForwards = 3
	forwards, retries := 0, 0
	for {
		err := o.invokeOnce(ctx, op, args, out)
		if err == nil {
			return nil
		}
		// The errors.As targets below escape; keeping them behind the nil
		// check keeps the happy path allocation-free (see perf_test.go).
		var fwd *forwardError
		if errors.As(err, &fwd) && forwards < maxForwards {
			forwards++
			o.mu.Lock()
			o.ref = fwd.ref
			o.binding = nil
			o.mu.Unlock()
			continue
		}
		var re *retryableError
		if errors.As(err, &re) {
			if retries < maxRetries && sleepCtx(ctx, retryDelay(retries)) == nil {
				retries++
				o.orb.ins.retries.Inc()
				continue
			}
			return re.err
		}
		return err
	}
}

// InvokeOneway performs a one-way invocation (the `send` mode): the request
// is sent without waiting for any reply.
func (o *Object) InvokeOneway(op string, args func(*cdr.Encoder)) error {
	return o.InvokeOnewayCtx(context.Background(), op, args)
}

// InvokeOnewayCtx is InvokeOneway with the dial bounded by the context.
// The call is recorded once the request is handed to the connection.
func (o *Object) InvokeOnewayCtx(ctx context.Context, op string, args func(*cdr.Encoder)) error {
	var c call
	m, err := o.issue(ctx, &c, op, args, false)
	if err != nil {
		return err
	}
	return c.finish(m, nil, nil, true)
}

// InvokeDeferred starts a deferred-synchronous invocation (the `defer`
// mode): the returned Pending is acted upon later via Poll/Wait/Cancel.
func (o *Object) InvokeDeferred(op string, args func(*cdr.Encoder)) (*Pending, error) {
	return o.start(context.Background(), op, args)
}

// InvokeDeferredCtx is InvokeDeferred with the dial and admission bounded
// by the context, failing like InvokeCtx (a TIMEOUT on expiry); the reply
// wait is bounded by the context handed to WaitCtx.
func (o *Object) InvokeDeferredCtx(ctx context.Context, op string, args func(*cdr.Encoder)) (*Pending, error) {
	return o.start(ctx, op, args)
}

// InvokeAsync starts an asynchronous invocation and calls notify with the
// outcome on a separate goroutine (the `notify` mode).
func (o *Object) InvokeAsync(op string, args func(*cdr.Encoder), notify func(out *cdr.Decoder, err error)) error {
	p, err := o.start(context.Background(), op, args)
	if err != nil {
		return err
	}
	go func() {
		err := p.Wait(nil)
		if err != nil {
			notify(nil, err)
			return
		}
		notify(p.bodyDecoder(), nil)
	}()
	return nil
}

// Locate asks the server whether it serves this object (GIOP
// LocateRequest/LocateReply). Colocated bindings answer from the local
// object adapter.
func (o *Object) Locate() (bool, error) {
	b, err := o.bind(context.Background())
	if err != nil {
		return false, err
	}
	if b.colocated {
		_, ok := o.orb.adapter.lookup(b.profile.ObjectKey)
		return ok, nil
	}
	id, slot, err := b.conn.register(context.Background(), time.Time{})
	if err != nil {
		o.invalidate()
		return false, err
	}
	frame, err := b.codec.MarshalLocateRequest(id, b.profile.ObjectKey)
	if err != nil {
		b.conn.unregister(id)
		b.conn.releaseSlot(slot)
		return false, err
	}
	flen := len(frame)
	if err := b.conn.send(frame); err != nil {
		o.invalidate()
		return false, err
	}
	o.orb.ins.msgOut(giop.MsgLocateRequest, flen)
	m, err := b.conn.awaitCtx(context.Background(), time.Time{}, slot, nil)
	if err != nil {
		o.invalidate()
		return false, err
	}
	b.conn.releaseSlot(slot)
	if m.LocateReply == nil {
		t := m.Header.Type
		b.codec.ReleaseMessage(m)
		return false, fmt.Errorf("orb: expected LocateReply, got %v", t)
	}
	here := m.LocateReply.Status == giop.LocateObjectHere
	b.codec.ReleaseMessage(m)
	return here, nil
}

// Pending is an in-flight deferred invocation: the issued call plus its
// settlement. There is no per-call goroutine: WaitCtx waits on the
// registered reply slot through the connection's awaitCtx and Poll probes
// it. The slot is intentionally not returned to the connection's freelist
// — concurrent Wait/Poll/Cancel callers may still be selecting on it, and
// recycling under them could deliver another request's reply.
type Pending struct {
	call

	// resolved wakes blocked Wait callers when Poll, another Wait or Cancel
	// settles the invocation first. Closed exactly once, under mu, by
	// whichever settles it; nil for a Pending born resolved.
	resolved chan struct{}

	mu      sync.Mutex
	settled bool // reply and err hold the outcome
	// reply is never released, remote or colocated: the Pending may retain
	// it indefinitely (bodyDecoder after Wait), so message and frame are
	// left to the garbage collector.
	reply *giop.Message
	err   error
	dead  bool
}

// settleLocked stores the invocation's outcome and wakes blocked Waits.
// Callers hold p.mu and have seen the invocation unsettled.
func (p *Pending) settleLocked(m *giop.Message, err error) {
	p.settled, p.reply, p.err = true, m, err
	close(p.resolved)
}

// Poll reports whether the reply has arrived (always true for colocated
// and cancelled requests). It never blocks.
func (p *Pending) Poll() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.settled || p.dead {
		return true
	}
	select {
	case m := <-p.slot.ch:
		p.settleLocked(m, nil)
	case <-p.b.conn.done:
		p.settleLocked(p.b.conn.lastReply(p.slot))
	default:
		return false
	}
	return true
}

// Wait blocks for the reply and decodes it like Invoke; it is WaitCtx
// with no context (only a QoS Latency requirement bounds it).
func (p *Pending) Wait(out func(*cdr.Decoder) error) error {
	return p.WaitCtx(context.Background(), out)
}

// WaitCtx blocks for the reply and decodes it like Invoke, bounded by the
// context and by the binding's QoS delay bound counted from the send (see
// deadlineFor). On expiry it returns a TIMEOUT system exception (matching
// errors.Is context.DeadlineExceeded) and leaves the invocation pending:
// the caller may WaitCtx again or Cancel. It does not hold the Pending's
// lock while blocked, so concurrent Poll and Cancel stay responsive; one
// that settles the invocation first wakes it through resolved.
func (p *Pending) WaitCtx(ctx context.Context, out func(*cdr.Decoder) error) error {
	p.mu.Lock()
	if !p.settled && !p.dead {
		p.mu.Unlock()
		m, err := p.b.conn.awaitCtx(ctx, deadlineFor(ctx, p.b, p.span.Start), p.slot, p.resolved)
		if errors.Is(err, context.DeadlineExceeded) {
			return p.timeout()
		}
		if errors.Is(err, context.Canceled) {
			return err
		}
		p.mu.Lock()
		if !p.settled && !p.dead {
			p.settleLocked(m, err)
		} else if m != nil {
			// Cancel won after the reply was already routed: drop it.
			p.b.codec.ReleaseMessage(m)
		}
	}
	if p.dead {
		p.mu.Unlock()
		p.record("canceled", "")
		return ErrCanceled
	}
	m, err := p.reply, p.err
	p.mu.Unlock()
	return p.finish(m, err, out, false)
}

// bodyDecoder exposes the reply body after a successful Wait(nil).
func (p *Pending) bodyDecoder() *cdr.Decoder {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reply == nil {
		return cdr.NewDecoder(nil, cdr.BigEndian)
	}
	return p.reply.BodyDecoder()
}

// Cancel abandons the invocation (the `cancel` mode): the request id is
// unregistered (making any late reply an orphan, counted by the
// orb.client.orphan_replies metric) and a CancelRequest is sent so the
// server suppresses the reply. Canceling a completed or colocated request
// is a no-op returning nil.
func (p *Pending) Cancel() error {
	p.mu.Lock()
	if p.settled || p.dead {
		p.mu.Unlock()
		return nil
	}
	p.dead = true
	close(p.resolved)
	p.mu.Unlock()
	p.b.conn.unregister(p.id)
	// A reply routed before unregister may sit in the slot; drop it. (A
	// concurrent Wait may race us to it and drops it the same way.)
	select {
	case m := <-p.slot.ch:
		p.b.codec.ReleaseMessage(m)
	default:
	}
	return p.o.sendCancel(p.b, p.id)
}
