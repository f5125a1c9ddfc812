package orb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

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

// deadlineFor merges the context deadline with the binding's QoS delay
// bound: a Latency parameter is a one-way bound in microseconds, so a
// two-way invocation is granted twice that before it times out. The zero
// time means unbounded.
func deadlineFor(ctx context.Context, b *binding) time.Time {
	var dl time.Time
	if lat := b.reqQoS.Value(qos.Latency, 0); lat > 0 {
		dl = time.Now().Add(2 * time.Duration(lat) * time.Microsecond)
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
// interface and would otherwise be heap-allocated).
var reqHdrPool = sync.Pool{New: func() any { return new(giop.RequestHeader) }}

// buildRequest marshals a Request frame for the bound profile. The codec
// carries qos_params whenever requirements are set (GIOP splices the
// binding's pre-encoded fragment and switches to 9.9, the COOL protocol to
// its QoS-extended framing). The returned frame is pooled: conn.send (or
// dispatchColocated) recycles it.
func (o *Object) buildRequest(b *binding, id uint32, op string, expectReply bool, span obs.Span, args func(*cdr.Encoder)) ([]byte, error) {
	hdr := reqHdrPool.Get().(*giop.RequestHeader)
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
	hdr.ObjectKey, hdr.QoS, hdr.QoSFrag, hdr.Principal = nil, nil, nil, nil
	reqHdrPool.Put(hdr)
	return frame, err
}

// result carries a deferred reply.
type result struct {
	m   *giop.Message
	err error
}

// recordCall finishes a synchronous invocation's observability: end-to-end
// latency (with the span's trace ID as the bucket exemplar) into the
// per-operation histogram, the client span's outcome, and — when the call
// exceeded its slow bound — a structured slow-call record. The b == nil /
// within-bound path adds no allocations over the plain histogram update.
func (o *Object) recordCall(b *binding, stats *clientOp, span obs.Span, outcome, detail string) {
	elapsed := time.Since(span.Start)
	stats.latency.ObserveDurationTrace(elapsed, span.Trace)
	span.End(outcome, detail)
	ins := o.orb.ins
	if bound := ins.clientSlowBound(b); bound > 0 && elapsed > bound {
		c := obs.SlowCall{
			Side: "client", Op: stats.op,
			Bound: bound, Dur: elapsed, Trace: span.Trace,
		}
		if b != nil {
			if !b.colocated {
				c.Peer = b.profile.Transport + "://" + b.profile.Address
			} else {
				c.Peer = "colocated"
			}
			if len(b.reqQoS) > 0 {
				c.QoS = b.reqQoS.String()
			}
		}
		ins.slowCall(c)
	}
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

// invokeOnce performs one synchronous two-way attempt: marshal into a
// pooled frame, send, block directly on the pooled reply slot, decode, and
// recycle message and buffers. The steady-state path allocates nothing and
// crosses no extra goroutines beyond the connection's reader. The context
// (and the QoS delay bound, see deadlineFor) bounds the dial and the wait
// for the reply.
//
//coollint:hotpath client invocation spine
func (o *Object) invokeOnce(ctx context.Context, op string, args func(*cdr.Encoder), out func(*cdr.Decoder) error) error {
	b, err := o.bind(ctx)
	if err != nil {
		return err
	}
	ins := o.orb.ins
	stats := ins.client(op)
	stats.calls.Inc()
	span := ins.tracer.StartSpan(stats.spanName)

	if b.colocated {
		id := o.colocatedID.Add(1)
		frame, err := o.buildRequest(b, id, op, true, span, args)
		if err != nil {
			o.recordCall(b, stats, span, "error", "marshal failed")
			return err
		}
		reply, err := o.orb.dispatchColocated(ctx, b.codec, frame)
		if err != nil {
			o.recordCall(b, stats, span, "error", err.Error())
			return err
		}
		if reply == nil {
			o.recordCall(b, stats, span, "ok", "")
			return nil
		}
		m, err := b.codec.UnmarshalPooled(reply)
		if err != nil {
			transport.PutBuffer(reply)
			o.recordCall(b, stats, span, "error", err.Error())
			return err
		}
		return o.finishInvoke(b, stats, span, m, out)
	}

	dl := deadlineFor(ctx, b)
	id, slot, err := b.conn.register(ctx, dl)
	if err != nil {
		// Flow control (WithMaxInFlight) can exhaust the deadline or see the
		// cancellation before the request is sent; the connection is healthy.
		if errors.Is(err, context.DeadlineExceeded) {
			ins.deadlineExceeded.Inc()
			o.recordCall(b, stats, span, "deadline_exceeded", "")
			return &timeoutError{exc: giop.TimeoutException()}
		}
		if errors.Is(err, context.Canceled) {
			o.recordCall(b, stats, span, "error", "canceled")
			return err
		}
		// The connection died between bind and register; nothing was
		// sent, so the attempt is safe to retry on a fresh connection.
		o.invalidate()
		o.recordCall(b, stats, span, "error", "connection closed")
		return &retryableError{err: err}
	}
	frame, err := o.buildRequest(b, id, op, true, span, args)
	if err != nil {
		b.conn.unregister(id)
		b.conn.releaseSlot(slot)
		o.recordCall(b, stats, span, "error", "marshal failed")
		return err
	}
	flen := len(frame)
	if err := b.conn.send(frame); err != nil {
		b.conn.unregister(id)
		b.conn.releaseSlot(slot)
		o.invalidate()
		o.recordCall(b, stats, span, "error", "send failed")
		return err
	}
	ins.msgOut(giop.MsgRequest, flen)
	m, err := b.conn.awaitCtx(ctx, dl, slot)
	if err != nil {
		b.conn.unregister(id)
		b.conn.releaseSlot(slot)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The connection is healthy — only this invocation is
			// abandoned. Tell the server to suppress the reply; a late
			// one is counted as an orphan by route.
			o.sendCancel(b, id)
			if errors.Is(err, context.DeadlineExceeded) {
				ins.deadlineExceeded.Inc()
				o.recordCall(b, stats, span, "deadline_exceeded", "")
				return &timeoutError{exc: giop.TimeoutException()}
			}
			o.recordCall(b, stats, span, "canceled", "")
			return err
		}
		o.invalidate()
		o.recordCall(b, stats, span, "error", err.Error())
		return err
	}
	b.conn.releaseSlot(slot)
	return o.finishInvoke(b, stats, span, m, out)
}

// sendCancel tells the server to suppress the reply of an abandoned
// request. Best effort: a broken connection needs no cancel.
func (o *Object) sendCancel(b *binding, id uint32) {
	frame, err := b.codec.MarshalCancelRequest(id)
	if err != nil {
		return
	}
	flen := len(frame)
	if b.conn.send(frame) == nil {
		o.orb.ins.msgOut(giop.MsgCancelRequest, flen)
	}
}

// finishInvoke decodes a two-way reply, recycles the message, and records
// the outcome. It owns m.
func (o *Object) finishInvoke(b *binding, stats *clientOp, span obs.Span, m *giop.Message, out func(*cdr.Decoder) error) error {
	var err error
	if m.Reply == nil {
		err = fmt.Errorf("orb: expected Reply, got %v", m.Header.Type) //coollint:allocok protocol violation; the connection is about to fail
	} else {
		err = decodeReply(m, out)
	}
	b.codec.ReleaseMessage(m)
	outcome, detail, nack := classifyOutcome(err)
	if nack {
		o.orb.ins.qosOutcome(mClientQoS, "nack")
		o.recordCall(b, stats, span, "nack", detail)
		o.abortBinding(b)
		return err
	}
	o.recordCall(b, stats, span, outcome, detail)
	return err
}

// start issues a request and returns a future for its reply. Two-way
// futures are goroutine-free: the Pending's Wait/Poll select directly on
// the registered reply slot. Colocated requests dispatch inline, so their
// Pending is born resolved. The context bounds the dial and the colocated
// dispatch; waiting for the reply is bounded by the context handed to
// WaitCtx.
func (o *Object) start(ctx context.Context, op string, args func(*cdr.Encoder), expectReply bool) (*Pending, error) {
	b, err := o.bind(ctx)
	if err != nil {
		return nil, err
	}
	ins := o.orb.ins
	stats := ins.client(op)
	stats.calls.Inc()
	span := ins.tracer.StartSpan(stats.spanName)
	if b.colocated {
		id := o.colocatedID.Add(1)
		frame, err := o.buildRequest(b, id, op, expectReply, span, args)
		if err != nil {
			span.End("error", "marshal failed")
			return nil, err
		}
		p := &Pending{o: o, oneway: !expectReply, span: span, stats: stats}
		reply, err := o.orb.dispatchColocated(ctx, b.codec, frame)
		switch {
		case err != nil:
			p.res = &result{err: err}
		case reply == nil:
			p.res = &result{}
		default:
			// Never released, like a remote Pending's reply: the Pending
			// may retain it indefinitely (bodyDecoder after Wait), so
			// message and frame are left to the garbage collector.
			m, merr := b.codec.UnmarshalPooled(reply) //coollint:owner the Pending keeps the reply for its lifetime
			p.res = &result{m: m, err: merr}
		}
		return p, nil
	}

	if !expectReply {
		id := b.conn.nextID.Add(1)
		frame, err := o.buildRequest(b, id, op, false, span, args)
		if err != nil {
			span.End("error", "marshal failed")
			return nil, err
		}
		flen := len(frame)
		if err := b.conn.send(frame); err != nil {
			o.invalidate()
			span.End("error", "send failed")
			return nil, err
		}
		ins.msgOut(giop.MsgRequest, flen)
		return &Pending{o: o, oneway: true, span: span, stats: stats, res: &result{}}, nil
	}

	id, slot, err := b.conn.register(ctx, deadlineFor(ctx, b))
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			o.invalidate()
		}
		span.End("error", "connection closed")
		return nil, err
	}
	frame, err := o.buildRequest(b, id, op, true, span, args)
	if err != nil {
		b.conn.unregister(id)
		b.conn.releaseSlot(slot)
		span.End("error", "marshal failed")
		return nil, err
	}
	flen := len(frame)
	if err := b.conn.send(frame); err != nil {
		o.invalidate()
		span.End("error", "send failed")
		return nil, err
	}
	ins.msgOut(giop.MsgRequest, flen)
	return &Pending{
		o: o, b: b, id: id, slot: slot,
		span: span, stats: stats,
		resolved: make(chan struct{}),
	}, nil
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
func (o *Object) InvokeOnewayCtx(ctx context.Context, op string, args func(*cdr.Encoder)) error {
	p, err := o.start(ctx, op, args, false)
	if err != nil {
		return err
	}
	// A oneway Pending is born resolved; consuming it here closes its span
	// and records the send latency, which discarding it would skip.
	return p.WaitCtx(ctx, nil)
}

// InvokeDeferred starts a deferred-synchronous invocation (the `defer`
// mode): the returned Pending is acted upon later via Poll/Wait/Cancel.
func (o *Object) InvokeDeferred(op string, args func(*cdr.Encoder)) (*Pending, error) {
	return o.start(context.Background(), op, args, true)
}

// InvokeDeferredCtx is InvokeDeferred with the dial bounded by the
// context; the reply wait is bounded by the context handed to WaitCtx.
func (o *Object) InvokeDeferredCtx(ctx context.Context, op string, args func(*cdr.Encoder)) (*Pending, error) {
	return o.start(ctx, op, args, true)
}

// InvokeAsync starts an asynchronous invocation and calls notify with the
// outcome on a separate goroutine (the `notify` mode).
func (o *Object) InvokeAsync(op string, args func(*cdr.Encoder), notify func(out *cdr.Decoder, err error)) error {
	p, err := o.start(context.Background(), op, args, true)
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
	m, err := b.conn.await(slot)
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

// Pending is an in-flight deferred invocation. Unlike the pre-pooling
// design there is no per-call await goroutine: Wait and Poll select
// directly on the registered reply slot. The slot is intentionally not
// returned to the connection's freelist — concurrent Wait/Poll/Cancel
// callers may still be selecting on it, and recycling under them could
// deliver another request's reply.
type Pending struct {
	o      *Object
	b      *binding
	id     uint32
	slot   *replySlot
	oneway bool
	span   obs.Span
	stats  *clientOp

	// resolved wakes blocked Wait callers when Poll or Cancel settles the
	// invocation first. Closed at most once, under mu.
	resolved chan struct{}

	mu       sync.Mutex
	res      *result
	dead     bool
	recorded bool
	signaled bool
}

// signalLocked closes resolved once. Callers hold p.mu.
func (p *Pending) signalLocked() {
	if !p.signaled && p.resolved != nil {
		p.signaled = true
		close(p.resolved)
	}
}

// record finishes the invocation's observability exactly once: end-to-end
// latency into the per-operation histogram and the client span's outcome.
func (p *Pending) record(outcome, detail string) {
	p.mu.Lock()
	already := p.recorded
	p.recorded = true
	p.mu.Unlock()
	if already {
		return
	}
	if p.stats != nil && p.o != nil {
		p.o.recordCall(p.b, p.stats, p.span, outcome, detail)
		return
	}
	if p.stats != nil {
		p.stats.latency.ObserveDuration(time.Since(p.span.Start))
	}
	p.span.End(outcome, detail)
}

// Poll reports whether the reply has arrived (always true for oneway,
// colocated, and cancelled requests). It never blocks.
func (p *Pending) Poll() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.res != nil || p.dead || p.slot == nil {
		return true
	}
	select {
	case m := <-p.slot.ch:
		p.res = &result{m: m}
		p.signalLocked()
		return true
	default:
	}
	select {
	case <-p.b.conn.done:
		// Prefer a reply that was routed before teardown.
		select {
		case m := <-p.slot.ch:
			p.res = &result{m: m}
		default:
			p.res = &result{err: p.b.conn.errNow()}
		}
		p.signalLocked()
		return true
	default:
	}
	return false
}

// Wait blocks for the reply and decodes it like Invoke; it is WaitCtx
// with no context (only a QoS Latency requirement bounds it).
func (p *Pending) Wait(out func(*cdr.Decoder) error) error {
	return p.WaitCtx(context.Background(), out)
}

// deadline merges the context deadline with the binding's QoS delay
// bound, measured from the request's send time (2× the one-way Latency,
// covering the round trip). The zero time means unbounded.
func (p *Pending) deadline(ctx context.Context) time.Time {
	var dl time.Time
	if p.b != nil {
		if lat := p.b.reqQoS.Value(qos.Latency, 0); lat > 0 {
			dl = p.span.Start.Add(2 * time.Duration(lat) * time.Microsecond)
		}
	}
	if cdl, ok := ctx.Deadline(); ok && (dl.IsZero() || cdl.Before(dl)) {
		dl = cdl
	}
	return dl
}

// expired reports a WaitCtx deadline expiry. The invocation itself stays
// pending, so the span is not closed here.
func (p *Pending) expired() error {
	if p.o != nil {
		p.o.orb.ins.deadlineExceeded.Inc()
	}
	return &timeoutError{exc: giop.TimeoutException()}
}

// WaitCtx blocks for the reply and decodes it like Invoke, bounded by the
// context and by the binding's QoS delay bound (see deadline). On expiry
// it returns a TIMEOUT system exception (matching errors.Is
// context.DeadlineExceeded) and leaves the invocation pending: the caller
// may WaitCtx again or Cancel. It does not hold the Pending's lock while
// blocked, so concurrent Poll and Cancel stay responsive; a Cancel that
// wins the race wakes Wait via the resolved channel.
func (p *Pending) WaitCtx(ctx context.Context, out func(*cdr.Decoder) error) error {
	p.mu.Lock()
	if p.res == nil && !p.dead && p.slot != nil {
		slot, conn, resolved := p.slot, p.b.conn, p.resolved
		p.mu.Unlock()
		var timeout <-chan time.Time
		if dl := p.deadline(ctx); !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return p.expired()
			}
			timer := time.NewTimer(d)
			defer timer.Stop()
			timeout = timer.C
		}
		select {
		case m := <-slot.ch:
			p.mu.Lock()
			if p.res == nil && !p.dead {
				p.res = &result{m: m}
				p.signalLocked()
			} else {
				// Cancel won after the reply was already routed: drop it.
				p.b.codec.ReleaseMessage(m)
			}
		case <-conn.done:
			var r result
			select {
			case m := <-slot.ch:
				r = result{m: m}
			default:
				r = result{err: conn.errNow()}
			}
			p.mu.Lock()
			if p.res == nil && !p.dead {
				rr := r
				p.res = &rr
				p.signalLocked()
			} else if r.m != nil {
				p.b.codec.ReleaseMessage(r.m)
			}
		case <-resolved:
			p.mu.Lock()
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return p.expired()
			}
			return ctx.Err()
		case <-timeout:
			return p.expired()
		}
	}
	if p.dead {
		p.mu.Unlock()
		p.record("canceled", "")
		return ErrCanceled
	}
	r := *p.res
	p.mu.Unlock()
	if r.err != nil {
		p.o.invalidate()
		p.record("error", r.err.Error())
		return r.err
	}
	if r.m == nil {
		p.record("ok", "") // oneway completion
		return nil
	}
	err := decodeReply(r.m, out)
	outcome, detail, nack := classifyOutcome(err)
	if nack {
		p.o.orb.ins.qosOutcome(mClientQoS, "nack")
		p.record("nack", detail)
		p.o.abortBinding(p.b)
		return err
	}
	p.record(outcome, detail)
	return err
}

// bodyDecoder exposes the reply body after a successful Wait(nil).
func (p *Pending) bodyDecoder() *cdr.Decoder {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.res == nil || p.res.m == nil {
		return cdr.NewDecoder(nil, cdr.BigEndian)
	}
	return p.res.m.BodyDecoder()
}

// Cancel abandons the invocation (the `cancel` mode): the request id is
// unregistered (making any late reply an orphan, counted by the
// orb.client.orphan_replies metric) and a CancelRequest is sent so the
// server suppresses the reply. Canceling a completed or colocated request
// is a no-op returning nil.
func (p *Pending) Cancel() error {
	p.mu.Lock()
	if p.res != nil || p.dead || p.oneway || p.b == nil || p.slot == nil {
		p.mu.Unlock()
		return nil
	}
	p.dead = true
	p.signalLocked()
	slot, conn := p.slot, p.b.conn
	p.mu.Unlock()
	conn.unregister(p.id)
	// A reply routed before unregister may sit in the slot; drop it. (A
	// concurrent Wait may race us to it and drops it the same way.)
	select {
	case m := <-slot.ch:
		p.b.codec.ReleaseMessage(m)
	default:
	}
	frame, err := p.b.codec.MarshalCancelRequest(p.id)
	if err != nil {
		return err
	}
	flen := len(frame)
	if err := conn.send(frame); err != nil {
		return err
	}
	p.o.orb.ins.msgOut(giop.MsgCancelRequest, flen)
	return nil
}
