package orb

import (
	"sync"
	"time"

	"cool/internal/giop"
	"cool/internal/obs"
	"cool/internal/qos"
)

// Metric names used by the ORB layers. Labels are appended in braces per
// the obs naming convention.
const (
	mClientCalls   = "orb.client.calls"       // {op=}
	mClientLatency = "orb.client.latency_us"  // {op=}
	mClientQoS     = "orb.client.qos"         // {result=ack|downgrade|nack|bind_failure}
	mServerReqs    = "orb.server.requests"    // {op=}
	mServerLatency = "orb.server.dispatch_us" // {op=}
	mServerExc     = "orb.server.exceptions"  // {type=}
	mServerQoS     = "orb.server.qos"         // {result=ack|downgrade|nack}
	mGIOPInMsgs    = "giop.in.msgs"           // {type=}
	mGIOPInBytes   = "giop.in.bytes"          // {type=}
	mGIOPOutMsgs   = "giop.out.msgs"          // {type=}
	mGIOPOutBytes  = "giop.out.bytes"         // {type=}
	// mClientOrphans counts replies routed to a request id with no waiter
	// (the request was cancelled or timed out before its reply arrived).
	mClientOrphans = "orb.client.orphan_replies"
	// mClientDeadline counts invocations abandoned because their deadline
	// (context or QoS delay bound) expired before the reply arrived.
	mClientDeadline = "orb.client.deadline_exceeded"
	// mClientRetries counts invocation attempts repeated after a
	// retry-safe failure (the request never reached the servant).
	mClientRetries = "orb.client.retries"
	// mClientRedials counts re-established connections: dials for an
	// endpoint whose cached connection had broken.
	mClientRedials = "orb.client.redials"
	// mServerDrainUS records the duration of the last Shutdown drain.
	mServerDrainUS = "orb.server.drain_us"
	// mServerDrained counts in-flight requests that completed during a
	// Shutdown drain; mServerDrainAborted counts the ones still running
	// when the drain deadline expired and their contexts were cancelled.
	mServerDrained      = "orb.server.drain_completed"
	mServerDrainAborted = "orb.server.drain_aborted"
	// mSlowClient / mSlowServer count invocations that exceeded their slow
	// bound (QoS Latency bound or configured threshold); each also lands a
	// structured record in the SlowLog ring.
	mSlowClient = "orb.client.slow_calls"
	mSlowServer = "orb.server.slow_calls"
	// mConnsCached gauges the connection-manager cache occupancy.
	mConnsCached = "orb.client.conns_cached"
	// mClientInflight gauges the requests currently registered (awaiting a
	// reply) across all client connections of this ORB.
	mClientInflight = "orb.client.inflight"
	// mClientFlushBatch / mServerFlushBatch record the number of frames each
	// coalesced vectored write carried (1 = no coalescing happened).
	mClientFlushBatch = "orb.client.flush_batch"
	mServerFlushBatch = "orb.server.flush_batch"
	// mFlowWait records how long admissions blocked on the per-connection
	// in-flight limit (maxInFlight). Only blocked registrations are
	// observed; an uncontended register contributes nothing.
	mFlowWait = "orb.client.flow_control_wait_us"
)

// flushBatchBuckets are the size-class bounds for the flush_batch
// histograms: powers of two up to the practical coalescing ceiling.
func flushBatchBuckets() []uint64 {
	return []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// clientOp caches the per-operation client-side metric handles and the
// span name so the invocation hot path never composes strings.
type clientOp struct {
	op       string
	calls    *obs.Counter
	latency  *obs.Histogram
	spanName string // "client:" + op
}

// serverOp is the server-side counterpart.
type serverOp struct {
	op       string
	requests *obs.Counter
	dispatch *obs.Histogram
	spanName string // "server:" + op
}

// schemeConns holds one transport scheme's transport.conns.* handles,
// resolved once so that dial, accept and teardown compose no metric name.
type schemeConns struct {
	opened, closed, failed *obs.Counter
	active                 *obs.Gauge
}

func (c *schemeConns) open() { c.opened.Inc(); c.active.Inc() }

// close counts one channel closed; each channel's owner calls it once.
func (c *schemeConns) close() { c.closed.Inc(); c.active.Dec() }

// instruments bundles the ORB's metric handles. One instance per ORB,
// created in New; all methods are safe for concurrent use.
type instruments struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	mu        sync.RWMutex
	clientOps map[string]*clientOp
	serverOps map[string]*serverOp
	excs      map[string]*obs.Counter
	qos       map[string]*obs.Counter
	schemes   map[string]*schemeConns

	// GIOP message counters, indexed by MsgType (7 kinds).
	inMsgs, inBytes, outMsgs, outBytes [int(giop.MsgMessageError) + 1]*obs.Counter

	// orphanReplies counts replies that arrived for an unregistered
	// request id (see mClientOrphans).
	orphanReplies *obs.Counter

	// Deadline, retry and drain instruments (see the metric constants).
	// Registered eagerly so their rows appear in snapshots (and coolstat)
	// even before the first event.
	deadlineExceeded *obs.Counter
	retries          *obs.Counter
	redials          *obs.Counter
	drainDuration    *obs.Gauge
	drainCompleted   *obs.Counter
	drainAborted     *obs.Counter

	// Slow-call instruments: invocations exceeding their slow bound bump
	// the side's counter and land a structured record in slowLog.
	// slowThreshold is the configured floor (WithSlowCallThreshold); zero
	// means only QoS Latency bounds trigger the log.
	slowLog       *obs.SlowLog
	slowThreshold time.Duration
	slowClient    *obs.Counter
	slowServer    *obs.Counter

	// connsCached gauges the connection-manager cache occupancy.
	connsCached *obs.Gauge

	// Multiplexing instruments (PR 7): in-flight registrations, coalesced
	// write batch sizes, and flow-control admission waits.
	inflight         *obs.Gauge
	clientFlushBatch *obs.Histogram
	serverFlushBatch *obs.Histogram
	flowWait         *obs.Histogram
}

func newInstruments() *instruments {
	ins := &instruments{
		reg:       obs.NewRegistry(),
		tracer:    obs.NewTracer(),
		clientOps: make(map[string]*clientOp),
		serverOps: make(map[string]*serverOp),
		excs:      make(map[string]*obs.Counter),
		qos:       make(map[string]*obs.Counter),
		schemes:   make(map[string]*schemeConns),
	}
	for t := giop.MsgRequest; t <= giop.MsgMessageError; t++ {
		label := "{type=" + t.String() + "}"
		ins.inMsgs[t] = ins.reg.Counter(mGIOPInMsgs + label)
		ins.inBytes[t] = ins.reg.Counter(mGIOPInBytes + label)
		ins.outMsgs[t] = ins.reg.Counter(mGIOPOutMsgs + label)
		ins.outBytes[t] = ins.reg.Counter(mGIOPOutBytes + label)
	}
	ins.orphanReplies = ins.reg.Counter(mClientOrphans)
	ins.deadlineExceeded = ins.reg.Counter(mClientDeadline)
	ins.retries = ins.reg.Counter(mClientRetries)
	ins.redials = ins.reg.Counter(mClientRedials)
	ins.drainDuration = ins.reg.Gauge(mServerDrainUS)
	ins.drainCompleted = ins.reg.Counter(mServerDrained)
	ins.drainAborted = ins.reg.Counter(mServerDrainAborted)
	ins.slowLog = obs.NewSlowLog(0)
	ins.slowClient = ins.reg.Counter(mSlowClient)
	ins.slowServer = ins.reg.Counter(mSlowServer)
	ins.connsCached = ins.reg.Gauge(mConnsCached)
	ins.inflight = ins.reg.Gauge(mClientInflight)
	ins.clientFlushBatch = ins.reg.Histogram(mClientFlushBatch, flushBatchBuckets())
	ins.serverFlushBatch = ins.reg.Histogram(mServerFlushBatch, flushBatchBuckets())
	ins.flowWait = ins.reg.Histogram(mFlowWait, obs.LatencyBuckets())
	return ins
}

// clientSlowBound returns the effective client-side slow bound for a
// binding: its round-trip QoS bound (see rttBound) when present, tightened
// by the configured threshold. Zero disables slow-call detection. No
// allocations: this runs per invocation.
func (ins *instruments) clientSlowBound(b *binding) time.Duration {
	bound := ins.slowThreshold
	if q := b.rttBound(); q > 0 && (bound == 0 || q < bound) {
		bound = q
	}
	return bound
}

// serverSlowBound is the dispatch-side equivalent: the one-way QoS Latency
// bound of the request, tightened by the configured threshold.
func (ins *instruments) serverSlowBound(reqQoS qos.Set) time.Duration {
	bound := ins.slowThreshold
	if lat := reqQoS.Value(qos.Latency, 0); lat > 0 {
		if q := time.Duration(lat) * time.Microsecond; bound == 0 || q < bound {
			bound = q
		}
	}
	return bound
}

// slowCall records one slow invocation: counter bump plus a structured ring
// record. Only ever called after a call has blown its bound, so the
// formatting cost is off the fast path.
//
//coollint:coldpath runs only after a call has blown its QoS bound
func (ins *instruments) slowCall(c obs.SlowCall) {
	if c.Side == "client" {
		ins.slowClient.Inc()
	} else {
		ins.slowServer.Inc()
	}
	c.Time = time.Now()
	ins.slowLog.Record(c)
}

// orphanReply counts one reply that found no registered waiter.
func (ins *instruments) orphanReply() { ins.orphanReplies.Inc() }

// client returns the cached client-side handles for an operation. The
// steady-state path is the read-locked cache hit; registration cost is
// paid once per operation name in newClientOp.
func (ins *instruments) client(op string) *clientOp {
	ins.mu.RLock()
	c, ok := ins.clientOps[op]
	ins.mu.RUnlock()
	if ok {
		return c
	}
	return ins.newClientOp(op)
}

// newClientOp registers the handles on first sight of an operation.
//
//coollint:coldpath once per operation name, amortized over all its calls
func (ins *instruments) newClientOp(op string) *clientOp {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if c, ok := ins.clientOps[op]; ok {
		return c
	}
	c := &clientOp{
		op:       op,
		calls:    ins.reg.Counter(mClientCalls + "{op=" + op + "}"),
		latency:  ins.reg.Histogram(mClientLatency+"{op="+op+"}", obs.LatencyBuckets()),
		spanName: "client:" + op,
	}
	ins.clientOps[op] = c
	return c
}

// server returns the cached server-side handles for an operation; like
// client, the miss path is split out so the dispatch spine stays
// allocation-free.
func (ins *instruments) server(op string) *serverOp {
	ins.mu.RLock()
	s, ok := ins.serverOps[op]
	ins.mu.RUnlock()
	if ok {
		return s
	}
	return ins.newServerOp(op)
}

// newServerOp registers the handles on first sight of an operation.
//
//coollint:coldpath once per operation name, amortized over all its calls
func (ins *instruments) newServerOp(op string) *serverOp {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if s, ok := ins.serverOps[op]; ok {
		return s
	}
	s := &serverOp{
		op:       op,
		requests: ins.reg.Counter(mServerReqs + "{op=" + op + "}"),
		dispatch: ins.reg.Histogram(mServerLatency+"{op="+op+"}", obs.LatencyBuckets()),
		spanName: "server:" + op,
	}
	ins.serverOps[op] = s
	return s
}

// exception bumps the per-type server exception counter.
func (ins *instruments) exception(name string) {
	ins.mu.RLock()
	c, ok := ins.excs[name]
	ins.mu.RUnlock()
	if !ok {
		c = ins.newExc(name)
	}
	c.Inc()
}

// newExc registers an exception counter on first sight of a type.
//
//coollint:coldpath once per exception type
func (ins *instruments) newExc(name string) *obs.Counter {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	c, ok := ins.excs[name]
	if !ok {
		c = ins.reg.Counter(mServerExc + "{type=" + name + "}")
		ins.excs[name] = c
	}
	return c
}

// qosOutcome bumps a negotiation-outcome counter (metric is mClientQoS or
// mServerQoS, result one of ack/downgrade/nack/bind_failure).
func (ins *instruments) qosOutcome(metric, result string) {
	key := metric + "{result=" + result + "}"
	ins.mu.RLock()
	c, ok := ins.qos[key]
	ins.mu.RUnlock()
	if !ok {
		c = ins.newQoSOutcome(key)
	}
	c.Inc()
}

// newQoSOutcome registers an outcome counter on first sight of a key.
//
//coollint:coldpath once per (metric, result) pair
func (ins *instruments) newQoSOutcome(key string) *obs.Counter {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	c, ok := ins.qos[key]
	if !ok {
		c = ins.reg.Counter(key)
		ins.qos[key] = c
	}
	return c
}

// conns returns a transport scheme's connection handles, registering them
// on first sight. It runs once per dial or listener, never per message.
func (ins *instruments) conns(scheme string) *schemeConns {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	c := ins.schemes[scheme]
	if c == nil {
		l := "{scheme=" + scheme + "}"
		c = &schemeConns{
			opened: ins.reg.Counter("transport.conns.opened" + l),
			closed: ins.reg.Counter("transport.conns.closed" + l),
			failed: ins.reg.Counter("transport.conns.failed" + l),
			active: ins.reg.Gauge("transport.conns.active" + l),
		}
		ins.schemes[scheme] = c
	}
	return c
}

// msgIn counts one inbound message frame.
func (ins *instruments) msgIn(t giop.MsgType, frameLen int) {
	if int(t) < len(ins.inMsgs) {
		ins.inMsgs[t].Inc()
		ins.inBytes[t].Add(uint64(frameLen))
	}
}

// msgOut counts one outbound message frame.
func (ins *instruments) msgOut(t giop.MsgType, frameLen int) {
	if int(t) < len(ins.outMsgs) {
		ins.outMsgs[t].Inc()
		ins.outBytes[t].Add(uint64(frameLen))
	}
}
