package orb

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/bufpool"
	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/obs"
	"cool/internal/qos"
	"cool/internal/transport"
)

// acceptLoop serves one listener until shutdown. A failed accept counts
// unless the listener itself was closed.
func (o *ORB) acceptLoop(l transport.Listener, codec Codec, conns *schemeConns) {
	defer o.wg.Done()
	for {
		ch, err := l.Accept()
		if err != nil {
			if !errors.Is(err, transport.ErrClosed) {
				conns.failed.Inc()
			}
			if o.isShutdown() {
				return
			}
			// A failed handshake (e.g. a rejected Da CaPo configuration)
			// must not stop the endpoint.
			continue
		}
		conns.open()
		o.wg.Add(1)
		go o.serveConn(ch, codec, conns)
	}
}

func (o *ORB) isShutdown() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.shutdown
}

// serverConnState tracks per-connection request cancellation and the
// number of requests currently dispatched off the read loop (the flush
// writer's gather hint: replies only coalesce while several are due).
type serverConnState struct {
	active   atomic.Int32
	mu       sync.Mutex
	canceled map[uint32]bool
}

func (s *serverConnState) cancel(id uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled == nil {
		s.canceled = make(map[uint32]bool)
	}
	s.canceled[id] = true
}

// takeCanceled reports and clears the cancel mark for a request id.
func (s *serverConnState) takeCanceled(id uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled[id] {
		delete(s.canceled, id)
		return true
	}
	return false
}

// serverTask is one request handed to the dispatch worker pool. A plain
// value (not a closure) so queueing a task does not allocate.
type serverTask struct {
	o     *ORB
	ctx   context.Context
	codec Codec
	w     *frameWriter
	m     *giop.Message
	state *serverConnState
	wg    *sync.WaitGroup
}

func (t serverTask) run() {
	defer t.wg.Done()
	t.o.completeRequest(t.ctx, t.codec, t.w, t.m, t.state)
	t.state.active.Add(-1)
	t.o.endRequest()
}

// dispatchWorkers sizes the shared worker pool for non-inline request
// dispatch.
func dispatchWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

// startDispatchers lazily starts the bounded dispatch worker pool. Workers
// exit when the queue is closed (after Shutdown has drained all server
// loops). They are deliberately not wg-tracked: Shutdown closes the queue
// only after wg.Wait, so tracking them would deadlock.
func (o *ORB) startDispatchers() {
	o.dispatchQ = make(chan serverTask, dispatchWorkers())
	for i := 0; i < dispatchWorkers(); i++ {
		go func() {
			for t := range o.dispatchQ {
				t.run()
			}
		}()
	}
}

// serveConn runs the GIOP server loop for one transport channel. Requests
// for inline-dispatch servants are handled on this goroutine (no hop, no
// allocation); everything else goes to the bounded worker pool, spilling
// into a fresh goroutine when the pool is saturated so a slow servant can
// never stall the read loop (cancellation depends on it staying live).
// The channel counts closed once, when this loop exits, however often
// Shutdown and the writer close it.
func (o *ORB) serveConn(ch transport.Channel, codec Codec, conns *schemeConns) {
	defer o.wg.Done()
	defer conns.close()
	defer ch.Close()
	// One context per connection, cancelled by Shutdown (after the drain
	// deadline expires) or when this serve loop exits; servants observe it
	// via Invocation.Ctx.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// All replies leave through one flush-coalescing writer, so concurrent
	// dispatch workers batch their reply frames into vectored writes. A
	// write failure closes the channel, which stops this read loop.
	state := &serverConnState{}
	w := newFrameWriter(ch, o.ins.serverFlushBatch, func() int { return int(state.active.Load()) }, func(error) { ch.Close() })
	if !o.trackAccepted(ch, codec, cancel, w) {
		return
	}
	defer o.untrackAccepted(ch)
	var dispatch sync.WaitGroup
	defer dispatch.Wait()
	for {
		frame, err := ch.ReadMessage()
		if err != nil {
			return // EOF or transport failure: drop the connection
		}
		m, err := codec.UnmarshalPooled(frame)
		if err != nil {
			// Malformed frame: answer MessageError and close (§2 GIOP
			// error handling; the COOL protocol mirrors it). The frame was
			// not adopted by a message, so recycle it here.
			transport.PutBuffer(frame)
			if mef, merr := codec.MarshalMessageError(); merr == nil {
				mlen := len(mef)
				if w.send(mef) == nil {
					o.ins.msgOut(giop.MsgMessageError, mlen)
				}
			}
			return
		}
		o.ins.msgIn(m.Header.Type, len(frame))
		switch m.Header.Type {
		case giop.MsgRequest:
			if !o.beginRequest() {
				// Draining: refuse so the peer can fail over or retry.
				o.rejectRequest(codec, w, m, giop.Transient(minorDraining))
				continue
			}
			if e, ok := o.adapter.lookup(m.Request.ObjectKey); ok && e.inline {
				o.completeRequest(ctx, codec, w, m, state)
				o.endRequest()
				continue
			}
			dispatch.Add(1)
			state.active.Add(1)
			t := serverTask{o: o, ctx: ctx, codec: codec, w: w, m: m, state: state, wg: &dispatch}
			select {
			case o.dispatchQ <- t:
			default:
				go t.run()
			}
		case giop.MsgCancelRequest:
			state.cancel(m.CancelRequest.RequestID)
			codec.ReleaseMessage(m)
		case giop.MsgLocateRequest:
			reply := o.handleLocate(codec, m)
			codec.ReleaseMessage(m)
			if reply != nil {
				flen := len(reply)
				if w.send(reply) == nil {
					o.ins.msgOut(giop.MsgLocateReply, flen)
				}
			}
		case giop.MsgCloseConnection:
			codec.ReleaseMessage(m)
			return
		case giop.MsgMessageError:
			codec.ReleaseMessage(m)
			return
		default:
			// Replies and LocateReplies are client-bound; a server
			// receiving one indicates a confused peer.
			codec.ReleaseMessage(m)
			return
		}
	}
}

// completeRequest dispatches one request and hands the reply (if any) to
// the connection's flush-coalescing writer, which owns the frame from then
// on. It owns m.
func (o *ORB) completeRequest(ctx context.Context, codec Codec, w *frameWriter, m *giop.Message, state *serverConnState) {
	reply := o.handleRequest(ctx, codec, m, state)
	codec.ReleaseMessage(m)
	if reply == nil {
		return
	}
	flen := len(reply)
	if w.send(reply) == nil {
		o.ins.msgOut(giop.MsgReply, flen)
	}
}

// minorDraining is the TRANSIENT minor code for requests refused because
// the ORB is draining for Shutdown.
const minorDraining = 1

// rejectRequest answers a request with a system exception without
// dispatching it (used during drain). It owns m.
func (o *ORB) rejectRequest(codec Codec, w *frameWriter, m *giop.Message, exc *giop.SystemException) {
	if m.Request.ResponseExpected {
		o.ins.exception(exc.Name())
		if frame, err := marshalReply(codec, m, m.Request.RequestID, giop.ReplySystemException, exc.Encode); err == nil {
			flen := len(frame)
			if w.send(frame) == nil {
				o.ins.msgOut(giop.MsgReply, flen)
			}
		}
	}
	codec.ReleaseMessage(m)
}

// replyHdrPool recycles Reply headers: the header escapes through the
// Codec interface and would otherwise be heap-allocated per reply.
var replyHdrPool = bufpool.NewPool(func(h *giop.ReplyHeader) { *h = giop.ReplyHeader{} })

// marshalReply encodes a reply with a pooled header.
func marshalReply(codec Codec, m *giop.Message, id uint32, status giop.ReplyStatus, body func(*cdr.Encoder)) ([]byte, error) {
	hdr := replyHdrPool.Get()
	hdr.RequestID, hdr.Status = id, status
	frame, err := boundFrame(codec.MarshalReply(m, hdr, body))
	replyHdrPool.Put(hdr)
	return frame, err
}

// invPool recycles Invocation records handed to servants.
var invPool = bufpool.NewPool(func(inv *Invocation) { *inv = Invocation{} })

// failReply records a system exception outcome and marshals the exception
// reply (nil for oneway requests).
func (o *ORB) failReply(codec Codec, m *giop.Message, span obs.Span, exc *giop.SystemException) []byte {
	o.ins.exception(exc.Name())
	outcome := "error"
	if exc.IsNACK() {
		outcome = "nack"
	}
	span.End(outcome, exc.Name())
	if !m.Request.ResponseExpected {
		return nil
	}
	frame, err := marshalReply(codec, m, m.Request.RequestID, giop.ReplySystemException, exc.Encode)
	if err != nil {
		return nil
	}
	return frame
}

// handleRequest performs the server side of Figure 4: unmarshal QoS and
// method, negotiate, dispatch, marshal results. It returns the reply frame,
// or nil when no reply is due (oneway or canceled requests). The returned
// frame is pooled; the caller recycles it after writing. ctx reaches the
// servant as Invocation.Ctx.
//
//coollint:hotpath server dispatch spine
func (o *ORB) handleRequest(ctx context.Context, codec Codec, m *giop.Message, state *serverConnState) []byte {
	req := m.Request
	ins := o.ins
	stats := ins.server(req.Operation)
	stats.requests.Inc()
	// Join the client's trace when the Request carries a trace service
	// context; otherwise the server span starts a trace of its own.
	var span obs.Span
	if trace, parent, ok := giop.DecodeTraceContext(req.ServiceContext); ok {
		span = ins.tracer.StartChild(obs.TraceID(trace), obs.TraceID(parent), stats.spanName)
	} else {
		span = ins.tracer.StartSpan(stats.spanName)
	}

	e, ok := o.adapter.lookup(req.ObjectKey)
	if !ok {
		if target, fwd := o.adapter.lookupForward(req.ObjectKey); fwd {
			frame, err := marshalReply(codec, m, req.RequestID, giop.ReplyLocationForward, target.Encode)
			if err != nil {
				return o.failReply(codec, m, span, giop.MarshalException())
			}
			span.End("forward", "")
			return frame
		}
		return o.failReply(codec, m, span, giop.ObjectNotExist())
	}

	// Bilateral QoS negotiation: the object implementation either supports
	// the requested QoS or NACKs (Figure 3).
	granted := qos.Set(nil)
	if len(req.QoS) > 0 {
		var err error
		granted, err = qos.Negotiate(req.QoS, e.capability)
		if err != nil {
			ins.qosOutcome(mServerQoS, "nack")
			var ne *qos.NegotiationError
			if errors.As(err, &ne) {
				return o.failReply(codec, m, span, giop.NoResources(uint32(len(ne.Failed))))
			}
			return o.failReply(codec, m, span, giop.NoResources(0))
		}
		if granted.Equal(req.QoS) {
			ins.qosOutcome(mServerQoS, "ack")
		} else {
			ins.qosOutcome(mServerQoS, "downgrade")
		}
	}

	inv := invPool.Get()
	// The returned ReplyWriter may read inv, so the record lives until the
	// reply is marshalled below, on every return path — still inside the
	// message's lifetime, which is what lets inv.Args alias the body.
	defer invPool.Put(inv)
	inv.Operation = req.Operation
	inv.QoS = granted
	inv.Args = m.BodyDecoder()
	inv.Principal = req.Principal
	inv.Ctx = ctx
	dispatchStart := time.Now()
	body, err := e.servant.Invoke(inv)
	dispatchDur := time.Since(dispatchStart)
	stats.dispatch.ObserveDurationTrace(dispatchDur, span.Trace)
	if bound := ins.serverSlowBound(req.QoS); bound > 0 && dispatchDur > bound {
		c := obs.SlowCall{
			Side: "server", Op: stats.op,
			Peer:  string(req.Principal), //coollint:allocok post-bound-blown slow-call record
			Bound: bound, Dur: dispatchDur, Trace: span.Trace,
		}
		if len(req.QoS) > 0 {
			c.QoS = req.QoS.String()
		}
		ins.slowCall(c)
	}

	if state != nil && state.takeCanceled(req.RequestID) {
		span.End("canceled", "")
		return nil // client abandoned the request
	}
	if !req.ResponseExpected {
		if err == nil {
			span.End("ok", "")
		} else {
			span.End("error", err.Error())
		}
		return nil
	}

	switch {
	case err == nil:
		var writer func(*cdr.Encoder)
		if body != nil {
			writer = (func(*cdr.Encoder))(body)
		}
		frame, merr := marshalReply(codec, m, req.RequestID, giop.ReplyNoException, writer)
		if merr != nil {
			return o.failReply(codec, m, span, giop.MarshalException())
		}
		span.End("ok", "")
		return frame
	default:
		var sysExc *giop.SystemException
		if errors.As(err, &sysExc) {
			return o.failReply(codec, m, span, sysExc)
		}
		var userErr *UserError
		if errors.As(err, &userErr) {
			frame, merr := marshalReply(codec, m, req.RequestID, giop.ReplyUserException, func(enc *cdr.Encoder) { //coollint:allocok user-exception reply, failure outcome
				enc.WriteString(userErr.ID)
				var data []byte
				if userErr.Body != nil {
					data = cdr.EncodeEncapsulation(cdr.BigEndian, userErr.Body)
				} else {
					data = cdr.EncodeEncapsulation(cdr.BigEndian, func(*cdr.Encoder) {})
				}
				enc.WriteEncapsulation(data)
			})
			if merr != nil {
				return o.failReply(codec, m, span, giop.MarshalException())
			}
			ins.exception(userErr.ID)
			span.End("user_exception", userErr.ID)
			return frame
		}
		return o.failReply(codec, m, span, giop.UnknownException())
	}
}

// handleLocate answers a LocateRequest. The returned frame is pooled; the
// caller recycles it after writing.
func (o *ORB) handleLocate(codec Codec, m *giop.Message) []byte {
	status := giop.LocateUnknownObject
	var body func(*cdr.Encoder)
	if _, ok := o.adapter.lookup(m.LocateRequest.ObjectKey); ok {
		status = giop.LocateObjectHere
	} else if target, fwd := o.adapter.lookupForward(m.LocateRequest.ObjectKey); fwd {
		status = giop.LocateObjectForward
		body = target.Encode
	}
	frame, err := codec.MarshalLocateReply(m, m.LocateRequest.RequestID, status, body)
	if err != nil {
		return nil
	}
	return frame
}

// dispatchColocated runs a marshalled request through the local object
// adapter without touching a transport: COOL's colocation optimisation.
// The request is still fully CDR-marshalled, so semantics (and marshalling
// bugs) match the remote path exactly. It consumes frame; the returned
// reply frame is pooled and owned by the caller. The caller's context
// reaches the servant as Invocation.Ctx.
func (o *ORB) dispatchColocated(ctx context.Context, codec Codec, frame []byte) ([]byte, error) {
	m, err := codec.UnmarshalPooled(frame)
	if err != nil {
		transport.PutBuffer(frame)
		return nil, err
	}
	if m.Header.Type != giop.MsgRequest {
		codec.ReleaseMessage(m)
		return nil, errors.New("orb: colocated dispatch expects a Request")
	}
	reply := o.handleRequest(ctx, codec, m, nil)
	responseExpected := m.Request.ResponseExpected
	codec.ReleaseMessage(m)
	if reply == nil {
		if !responseExpected {
			return nil, nil
		}
		return nil, io.ErrUnexpectedEOF
	}
	return reply, nil
}
