package orb

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cool/internal/giop"
	"cool/internal/ior"
	"cool/internal/obs"
	"cool/internal/qos"
	"cool/internal/transport"
)

// defaultDrainTimeout bounds how long Shutdown waits for in-flight
// requests to complete before cancelling their contexts.
const defaultDrainTimeout = 5 * time.Second

// ORB is one COOL runtime instance: object adapter, server endpoints, and
// client-side connection management over the generic transport layer.
type ORB struct {
	name         string
	registry     *transport.Registry
	adapter      *Adapter
	principal    []byte
	codecs       map[string]Codec
	ins          *instruments
	cm           *connManager
	drainTimeout time.Duration

	mu        sync.Mutex
	endpoints []endpoint
	listeners []transport.Listener
	accepted  map[transport.Channel]acceptedConn
	activated bool
	shutdown  bool
	wg        sync.WaitGroup

	// drainMu guards the server-side in-flight request accounting that
	// Shutdown's graceful drain waits on.
	drainMu   sync.Mutex
	draining  bool
	inflight  int
	drainDone chan struct{}

	// dispatchQ feeds the bounded server dispatch worker pool, started
	// lazily with the first listener and closed by Shutdown after all
	// server loops have drained.
	dispatchQ   chan serverTask
	workerStart sync.Once
	workerStop  sync.Once
}

// acceptedConn is the shutdown bookkeeping for one inbound connection:
// the codec (to announce CloseConnection), the cancel function of the
// per-connection request context, and the connection's reply writer (so
// Shutdown can wait for queued replies to reach the transport before
// closing).
type acceptedConn struct {
	codec  Codec
	cancel context.CancelFunc
	w      *frameWriter
}

// endpoint is one served transport address.
type endpoint struct {
	scheme     string
	protocol   string
	addr       string
	capability qos.Capability
}

type connKey struct {
	scheme   string
	protocol string
	addr     string
	qosKey   string
}

// Option configures New.
type Option interface{ apply(*ORB) }

type optFunc func(*ORB)

func (f optFunc) apply(o *ORB) { f(o) }

// WithName labels the ORB (diagnostics only).
func WithName(name string) Option {
	return optFunc(func(o *ORB) { o.name = name })
}

// WithTransport registers an additional transport manager (e.g. the Da CaPo
// manager). tcp and inproc are always available.
func WithTransport(m transport.Manager) Option {
	return optFunc(func(o *ORB) { o.registry.Register(m) })
}

// WithPrincipal sets the requesting_principal blob sent in requests.
func WithPrincipal(p []byte) Option {
	return optFunc(func(o *ORB) { o.principal = p })
}

// WithMessageProtocol registers an additional message protocol codec for
// the generic message protocol layer; "giop" is always available.
func WithMessageProtocol(c Codec) Option {
	return optFunc(func(o *ORB) { o.codecs[c.Name()] = c })
}

// WithDrainTimeout bounds the graceful-drain phase of Shutdown: how long
// the ORB waits for in-flight requests to complete before cancelling
// their contexts and closing the connections anyway. Zero or negative
// keeps the default (5s).
func WithDrainTimeout(d time.Duration) Option {
	return optFunc(func(o *ORB) { o.drainTimeout = d })
}

// WithSlowCallThreshold sets a latency floor above which any invocation —
// client round-trip or server dispatch — is recorded in the slow-call log
// even without a QoS Latency bound. Calls bound by a QoS Latency parameter
// use the tighter of the two. Zero (the default) logs only QoS-bound
// violations.
func WithSlowCallThreshold(d time.Duration) Option {
	return optFunc(func(o *ORB) { o.ins.slowThreshold = d })
}

// New creates an ORB with the standard tcp and inproc transports
// registered.
func New(opts ...Option) *ORB {
	o := &ORB{
		name:     "cool",
		registry: transport.NewRegistry(transport.NewTCPManager(), transport.NewInprocManager()),
		adapter:  NewAdapter(),
		accepted: make(map[transport.Channel]acceptedConn),
		codecs:   map[string]Codec{"giop": GIOPCodec{}},
		ins:      newInstruments(),
	}
	o.registry.SetHooks(&transport.Hooks{
		Opened: func(scheme string) {
			o.ins.reg.Counter("transport.conns.opened{scheme=" + scheme + "}").Inc()
			o.ins.reg.Gauge("transport.conns.active{scheme=" + scheme + "}").Inc()
		},
		Closed: func(scheme string) {
			o.ins.reg.Counter("transport.conns.closed{scheme=" + scheme + "}").Inc()
			o.ins.reg.Gauge("transport.conns.active{scheme=" + scheme + "}").Dec()
		},
		Failed: func(scheme string) {
			o.ins.reg.Counter("transport.conns.failed{scheme=" + scheme + "}").Inc()
		},
	})
	for _, opt := range opts {
		opt.apply(o)
	}
	o.cm = newConnManager(o.registry, o.ins, o.codec)
	return o
}

// Metrics exposes the ORB's metric registry.
func (o *ORB) Metrics() *obs.Registry { return o.ins.reg }

// Tracer exposes the ORB's span tracer. Components integrated with the ORB
// (e.g. the Da CaPo manager) emit their structured events through it.
func (o *ORB) Tracer() *obs.Tracer { return o.ins.tracer }

// SetObserver installs (or replaces, or with nil removes) the observer
// receiving spans and structured events from this ORB.
func (o *ORB) SetObserver(ob obs.Observer) { o.ins.tracer.SetObserver(ob) }

// SlowCalls exposes the ORB's slow-call log: the bounded ring of
// invocations that exceeded their QoS Latency bound or the configured
// WithSlowCallThreshold.
func (o *ORB) SlowCalls() *obs.SlowLog { return o.ins.slowLog }

// Adapter exposes the object adapter.
func (o *ORB) Adapter() *Adapter { return o.adapter }

// Transports exposes the transport registry (to register custom managers
// after construction).
func (o *ORB) Transports() *transport.Registry { return o.registry }

// ListenOn binds a server endpoint speaking GIOP on the given transport
// scheme and starts serving it. addr may be empty to auto-select. It
// returns the bound address.
func (o *ORB) ListenOn(scheme, addr string) (string, error) {
	return o.ListenOnProtocol(scheme, addr, "giop")
}

// ListenOnProtocol is ListenOn with an explicit message protocol ("giop",
// or any codec registered via WithMessageProtocol — e.g. "cool").
func (o *ORB) ListenOnProtocol(scheme, addr, protocol string) (string, error) {
	codec, err := o.codec(protocol)
	if err != nil {
		return "", err
	}
	mgr, err := o.registry.Get(scheme)
	if err != nil {
		return "", err
	}
	l, err := mgr.Listen(addr)
	if err != nil {
		return "", err
	}
	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		l.Close()
		return "", errShutdown
	}
	o.listeners = append(o.listeners, l)
	o.endpoints = append(o.endpoints, endpoint{scheme: scheme, protocol: protocol, addr: l.Addr(), capability: mgr.Capability()})
	o.activated = true
	o.mu.Unlock()

	o.workerStart.Do(o.startDispatchers)
	o.wg.Add(1)
	go o.acceptLoop(l, codec)
	return l.Addr(), nil
}

// codec resolves a message protocol name ("" defaults to GIOP).
func (o *ORB) codec(name string) (Codec, error) {
	if name == "" {
		name = "giop"
	}
	c, ok := o.codecs[name]
	if !ok {
		return nil, fmt.Errorf("orb: unknown message protocol %q", name)
	}
	return c, nil
}

// RegisterServant activates a servant and returns an object reference with
// one profile per served endpoint. At least one endpoint must be listening
// unless the servant is only used colocated (then the reference carries an
// inproc-style local profile).
func (o *ORB) RegisterServant(s Servant, opts ...ServantOption) (ior.Ref, error) {
	key, err := o.adapter.Activate(s, opts...)
	if err != nil {
		return ior.Ref{}, err
	}
	return o.RefFor(s.RepoID(), key), nil
}

// RefFor builds an object reference for an activated object key.
func (o *ORB) RefFor(typeID string, key []byte) ior.Ref {
	o.mu.Lock()
	defer o.mu.Unlock()
	ref := ior.Ref{TypeID: typeID}
	for _, ep := range o.endpoints {
		proto := ep.protocol
		if proto == "giop" {
			proto = "" // default on the wire
		}
		ref.Profiles = append(ref.Profiles, ior.Profile{
			Transport:  ep.scheme,
			Protocol:   proto,
			Address:    ep.addr,
			ObjectKey:  key,
			Capability: ep.capability,
		})
	}
	if len(ref.Profiles) == 0 {
		// Colocated-only object: a pseudo profile resolvable in-process.
		ref.Profiles = append(ref.Profiles, ior.Profile{
			Transport:  "local",
			Address:    o.name,
			ObjectKey:  key,
			Capability: qos.Unconstrained(),
		})
	}
	return ref
}

// Resolve returns a client proxy for a reference.
func (o *ORB) Resolve(ref ior.Ref) *Object {
	return &Object{orb: o, ref: ref}
}

// ResolveString parses a stringified IOR and returns a proxy.
func (o *ORB) ResolveString(s string) (*Object, error) {
	ref, err := ior.Unmarshal(s)
	if err != nil {
		return nil, err
	}
	return o.Resolve(ref), nil
}

// isLocal reports whether a profile addresses this ORB instance, enabling
// the object adapter's colocation shortcut.
func (o *ORB) isLocal(p ior.Profile) bool {
	if p.Transport == "local" {
		_, ok := o.adapter.lookup(p.ObjectKey)
		return ok
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, ep := range o.endpoints {
		if ep.scheme == p.Transport && ep.addr == p.Address {
			_, ok := o.adapter.lookup(p.ObjectKey)
			return ok
		}
	}
	return false
}

// Shutdown gracefully stops the ORB. It stops accepting new connections,
// refuses new requests (TRANSIENT), closes the client-side connections,
// waits up to the drain timeout (WithDrainTimeout) for in-flight requests
// to complete — their replies are still delivered — then announces
// CloseConnection to the remaining peers, cancels their request contexts,
// and tears the rest down.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		o.wg.Wait()
		return
	}
	o.shutdown = true
	listeners := o.listeners
	o.listeners = nil
	o.mu.Unlock()

	for _, l := range listeners {
		l.Close()
	}
	o.cm.close()

	start := time.Now()
	o.drain()
	o.ins.drainDuration.Set(time.Since(start).Microseconds())

	o.mu.Lock()
	accepted := o.accepted
	o.accepted = make(map[transport.Channel]acceptedConn)
	o.mu.Unlock()
	for ch, ac := range accepted {
		// Drained requests count as complete once their reply is queued on
		// the writer; let the queue reach the transport before closing.
		if ac.w != nil {
			ac.w.waitIdle(time.Second)
		}
		// Orderly GIOP shutdown: tell the peer before closing so it can
		// distinguish a drain from a failure.
		if frame, err := ac.codec.MarshalCloseConnection(); err == nil {
			if ch.WriteMessage(frame) == nil {
				o.ins.msgOut(giop.MsgCloseConnection, len(frame))
			}
			transport.PutBuffer(frame)
		}
		ac.cancel()
		ch.Close()
	}
	o.wg.Wait()
	// All server loops have exited, so no task can be queued anymore:
	// release the dispatch workers.
	o.workerStop.Do(func() {
		if o.dispatchQ != nil {
			close(o.dispatchQ)
		}
	})
}

// drain flips the ORB into draining mode (beginRequest refuses new work)
// and waits for the in-flight requests to finish, bounded by the drain
// timeout. It reports whether the drain completed.
func (o *ORB) drain() bool {
	timeout := o.drainTimeout
	if timeout <= 0 {
		timeout = defaultDrainTimeout
	}
	o.drainMu.Lock()
	o.draining = true
	if o.inflight == 0 {
		o.drainMu.Unlock()
		return true
	}
	done := make(chan struct{})
	o.drainDone = done
	o.drainMu.Unlock()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		o.drainMu.Lock()
		aborted := o.inflight
		o.drainDone = nil
		o.drainMu.Unlock()
		if aborted > 0 {
			o.ins.drainAborted.Add(uint64(aborted))
		}
		return false
	}
}

// beginRequest admits one server-side request; it refuses (false) once
// the ORB is draining.
func (o *ORB) beginRequest() bool {
	o.drainMu.Lock()
	defer o.drainMu.Unlock()
	if o.draining {
		return false
	}
	o.inflight++
	return true
}

// endRequest retires one admitted request (its reply, if any, has been
// written), waking the drain when the last one finishes.
func (o *ORB) endRequest() {
	o.drainMu.Lock()
	o.inflight--
	if o.draining {
		o.ins.drainCompleted.Inc()
		if o.inflight == 0 && o.drainDone != nil {
			close(o.drainDone)
			o.drainDone = nil
		}
	}
	o.drainMu.Unlock()
}

// trackAccepted registers an inbound connection for shutdown; it reports
// false when the ORB is already shutting down.
func (o *ORB) trackAccepted(ch transport.Channel, codec Codec, cancel context.CancelFunc, w *frameWriter) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.shutdown {
		return false
	}
	o.accepted[ch] = acceptedConn{codec: codec, cancel: cancel, w: w}
	return true
}

func (o *ORB) untrackAccepted(ch transport.Channel) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.accepted, ch)
}
