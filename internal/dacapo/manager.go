package dacapo

import (
	"errors"
	"fmt"
	"sync"

	"cool/internal/qos"
	"cool/internal/transport"
)

// Manager plugs Da CaPo into COOL's generic transport layer as the third
// transport alternative (paper Figure 7, alternative (i)): GIOP-formatted
// messages from the message layer are carried through a dynamically
// configured module stack over an underlying T service.
//
// The T service is any other transport.Manager (tcp, inproc, or a
// netsim-backed one); Da CaPo runs its protocol configuration on top of the
// channels that manager provides.
type Manager struct {
	inner transport.Manager
	reg   *Registry
	rm    *ResourceManager
	// linkCap is the raw capability of the underlying T service used for
	// configuration and admission decisions.
	linkCap qos.Capability
	// mon is the observability wiring (nil until Instrument is called).
	mon *monitor
}

var _ transport.Manager = (*Manager)(nil)

// NewManager wraps the inner transport with Da CaPo. reg is the module
// library, rm the endpoint's resource budget (may be shared between
// listeners and dialers), linkCap the raw capability of the network the
// inner transport traverses.
func NewManager(inner transport.Manager, reg *Registry, rm *ResourceManager, linkCap qos.Capability) *Manager {
	return &Manager{inner: inner, reg: reg, rm: rm, linkCap: linkCap}
}

// Scheme returns "dacapo".
func (m *Manager) Scheme() string { return "dacapo" }

// Capability reports what a configured Da CaPo stack can deliver over this
// manager's link: the link's raw throughput/latency/jitter plus the
// protocol functions the module library can add (reliability, ordering,
// confidentiality).
func (m *Manager) Capability() qos.Capability {
	c := make(qos.Capability, len(m.linkCap)+3)
	for t, l := range m.linkCap {
		c[t] = l
	}
	c[qos.Reliability] = qos.Limit{Best: 0, Supported: true}
	c[qos.Ordering] = qos.Limit{Best: 1, Supported: true}
	c[qos.Confidentiality] = qos.Limit{Best: 1, Supported: true}
	if _, ok := c[qos.Priority]; !ok {
		c[qos.Priority] = qos.Limit{Best: 255, Supported: true}
	}
	return c
}

// Dial connects to a Da CaPo listener. The returned channel starts
// unconfigured: the first SetQoSParameter (or the first write, with an
// empty requirement) performs configuration and peer signalling. A later
// SetQoSParameter with different requirements reconfigures by establishing
// a fresh connection — the paper's "changes in QoS requirements have to be
// reflected in reconfigurations of the transport connection" (§4.1).
func (m *Manager) Dial(addr string) (transport.Channel, error) {
	return &qchannel{mgr: m, addr: addr}, nil
}

// Listen binds a listener on the inner transport; each accepted connection
// performs the responder side of configuration signalling before it is
// returned.
func (m *Manager) Listen(addr string) (transport.Listener, error) {
	inner, err := m.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &qlistener{mgr: m, inner: inner}, nil
}

type qlistener struct {
	mgr   *Manager
	inner transport.Listener
}

func (l *qlistener) Accept() (transport.Channel, error) {
	ch, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	// The channel exists before the handshake so mid-stream
	// reconfiguration callbacks registered during acceptOne can swap its
	// reservation once a splice completes.
	qc := &qchannel{mgr: l.mgr}
	rt, granted, res, err := l.acceptOne(ch, qc)
	if err != nil {
		// A single bad handshake must not kill the accept loop; report it
		// as a channel-level error by retrying is the server loop's call.
		return nil, err
	}
	qc.mu.Lock()
	qc.rt, qc.granted, qc.res = rt, granted, res
	qc.mu.Unlock()
	l.mgr.mon.connected(rt, "accept")
	return qc, nil
}

func (l *qlistener) acceptOne(ch transport.Channel, qc *qchannel) (*Runtime, qos.Set, *Reservation, error) {
	var pendingRes *Reservation
	rejectReason := ""
	policy := func(spec Spec, requested qos.Set) (qos.Set, error) {
		// Unilateral transport-level admission: grant what the link plus
		// the proposed protocol can deliver — degraded to the remaining
		// resource budget when the requester's range allows — then
		// reserve.
		capability := l.mgr.Capability()
		if l.mgr.rm != nil {
			if avail, limited := l.mgr.rm.Available(); limited {
				tl := capability[qos.Throughput]
				if !tl.Supported || tl.Best > avail {
					capability[qos.Throughput] = qos.Limit{Best: avail, Supported: true}
				}
			}
		}
		granted, err := qos.Negotiate(requested, capability)
		if err != nil {
			rejectReason = "qos"
			return nil, err
		}
		if l.mgr.rm != nil {
			res, err := l.mgr.rm.Reserve(granted)
			if err != nil {
				rejectReason = "budget"
				return nil, err
			}
			pendingRes = res
		}
		return granted, nil
	}
	rt, granted, err := Accept(ch, l.mgr.reg, policy)
	if err != nil {
		if pendingRes != nil {
			pendingRes.Release()
		}
		if rejectReason == "" {
			if errors.Is(err, ErrRejected) {
				rejectReason = "spec"
			} else {
				rejectReason = "transport"
			}
		}
		l.mgr.mon.rejected(rejectReason, err)
		return nil, nil, nil, err
	}
	res := pendingRes
	pendingRes = nil
	// Mid-stream reconfigurations run the same admission policy; a
	// completed splice swaps in the reservation that policy made. Policy
	// and callback both run on the reader goroutine, so pendingRes needs
	// no lock. (A proposal that fails after the policy granted leaks its
	// reservation until Close — accepted skew on a rare failure path.)
	rt.OnReconfigured(func(_ Spec, g qos.Set) {
		nres := pendingRes
		pendingRes = nil
		qc.mu.Lock()
		old := qc.res
		qc.res = nres
		qc.granted = g.Clone()
		qc.mu.Unlock()
		if old != nil {
			old.Release()
		}
	})
	return rt, granted, res, nil
}

func (l *qlistener) Addr() string { return l.inner.Addr() }
func (l *qlistener) Close() error { return l.inner.Close() }

// qchannel is a Da CaPo-backed transport.Channel. On the dial side it is
// lazily configured; on the accept side it arrives configured.
type qchannel struct {
	mgr  *Manager
	addr string // dial side only

	mu      sync.Mutex
	rt      *Runtime
	granted qos.Set
	applied qos.Set
	res     *Reservation
	closed  bool
}

// configureLocked (re)establishes the connection for the given
// requirements. The previous runtime, if any, is returned for the caller
// to retire with c.retire AFTER releasing c.mu: Runtime.Close waits for
// the module goroutines to drain, which must not happen under the
// channel lock (coollint: lockhold).
func (c *qchannel) configureLocked(params qos.Set) (retired *Runtime, err error) {
	if c.addr == "" {
		// Accept-side channels cannot redial; reconfiguration happens by
		// the client opening a new connection.
		return nil, fmt.Errorf("dacapo: cannot reconfigure an accepted connection")
	}
	spec, granted, err := Configure(params, c.mgr.linkCap)
	if err != nil {
		c.mgr.mon.rejected("qos", err)
		return nil, err
	}
	var res *Reservation
	if c.mgr.rm != nil {
		res, err = c.mgr.rm.Reserve(granted)
		if err != nil {
			c.mgr.mon.rejected("budget", err)
			return nil, err
		}
	}
	inner, err := c.mgr.inner.Dial(c.addr)
	if err != nil {
		if res != nil {
			res.Release()
		}
		c.mgr.mon.rejected("transport", err)
		return nil, err
	}
	rt, remoteGranted, err := Connect(inner, c.mgr.reg, spec, granted)
	if err != nil {
		if res != nil {
			res.Release()
		}
		c.mgr.mon.rejected("peer", err)
		return nil, err
	}
	// Hand the previous configuration to the caller for teardown.
	retired = c.rt
	if c.res != nil {
		c.res.Release()
	}
	c.rt = rt
	c.granted = remoteGranted
	c.applied = params.Clone()
	c.res = res
	c.mgr.mon.connected(rt, "dial")
	return retired, nil
}

// retire tears down a runtime returned by configureLocked. Must be called
// without c.mu held: Close blocks on the module goroutines.
func (c *qchannel) retire(rt *Runtime) {
	if rt == nil {
		return
	}
	rt.Close()
	c.mgr.mon.untrack(rt)
}

func (c *qchannel) ensureLocked() (retired *Runtime, err error) {
	if c.closed {
		return nil, transport.ErrClosed
	}
	if c.rt == nil {
		return c.configureLocked(nil)
	}
	return nil, nil
}

// SetQoSParameter performs Da CaPo's part of the unilateral negotiation:
// map the requirements to a protocol configuration and resources, or fail.
// On a running connection it first attempts a mid-stream reconfiguration —
// the control-plane splice that renegotiates the module graph without
// tearing the transport down — and falls back to redialling when the
// splice is unsupported (blocking modules), rejected, or the runtime is
// poisoned. It returns the granted set.
func (c *qchannel) SetQoSParameter(params qos.Set) (qos.Set, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if c.rt != nil && c.applied.Equal(params) {
		granted := c.granted.Clone() // unchanged: keep the connection
		c.mu.Unlock()
		return granted, nil
	}
	rt := c.rt
	c.mu.Unlock()
	if rt != nil && c.addr != "" {
		if granted, ok := c.reconfigureInPlace(rt, params); ok {
			return granted, nil
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, transport.ErrClosed
	}
	retired, err := c.configureLocked(params) //coollint:allow lockhold -- the only Close reachable here tears down a freshly dialled runtime on its own failure path; nothing it waits on takes c.mu
	var granted qos.Set
	if err == nil {
		granted = c.granted.Clone()
	}
	c.mu.Unlock()
	c.retire(retired)
	if err != nil {
		return nil, err
	}
	return granted, nil
}

// reconfigureInPlace attempts the control-plane splice on a running
// connection. ok=false means the caller should fall back to redialling:
// unsupported (blocking modules on either side), busy, rejected by the
// peer, or the runtime already poisoned — configureLocked replaces a
// poisoned runtime the same way it replaces an outgrown one.
func (c *qchannel) reconfigureInPlace(rt *Runtime, params qos.Set) (qos.Set, bool) {
	spec, granted, err := Configure(params, c.mgr.linkCap)
	if err != nil {
		return nil, false
	}
	var res *Reservation
	if c.mgr.rm != nil {
		if res, err = c.mgr.rm.Reserve(granted); err != nil {
			return nil, false
		}
	}
	remote, err := rt.Reconfigure(spec, granted)
	if err != nil {
		if res != nil {
			res.Release()
		}
		return nil, false
	}
	c.mu.Lock()
	if c.closed || c.rt != rt {
		c.mu.Unlock()
		if res != nil {
			res.Release()
		}
		return nil, false
	}
	old := c.res
	c.granted = remote
	c.applied = params.Clone()
	c.res = res
	c.mu.Unlock()
	if old != nil {
		old.Release()
	}
	return remote.Clone(), true
}

// Granted returns the QoS granted at the last (re)configuration.
func (c *qchannel) Granted() qos.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.granted.Clone()
}

// Spec returns the active protocol configuration (empty until configured).
func (c *qchannel) Spec() Spec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rt == nil {
		return Spec{}
	}
	return c.rt.Spec()
}

func (c *qchannel) runtime() (*Runtime, error) {
	c.mu.Lock()
	retired, err := c.ensureLocked() //coollint:allow lockhold -- the only Close reachable here tears down a freshly dialled runtime on its own failure path; nothing it waits on takes c.mu
	var rt *Runtime
	if err == nil {
		rt = c.rt
	}
	c.mu.Unlock()
	c.retire(retired)
	if err != nil {
		return nil, err
	}
	return rt, nil
}

func (c *qchannel) WriteMessage(p []byte) error {
	rt, err := c.runtime()
	if err != nil {
		return err
	}
	return rt.Send(p)
}

// WriteMessages sends a batch of frames through the stack in one pass;
// the orb combiner uses this for vectored flushes.
func (c *qchannel) WriteMessages(frames [][]byte) error {
	rt, err := c.runtime()
	if err != nil {
		return err
	}
	return rt.SendBatch(frames)
}

func (c *qchannel) ReadMessage() ([]byte, error) {
	rt, err := c.runtime()
	if err != nil {
		return nil, err
	}
	return rt.Recv()
}

func (c *qchannel) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	rt, res := c.rt, c.res
	c.rt, c.res = nil, nil
	c.mu.Unlock()
	// Teardown outside the lock: Runtime.Close waits for the module
	// goroutines to drain (coollint: lockhold).
	c.retire(rt)
	if res != nil {
		res.Release()
	}
	return nil
}

func (c *qchannel) LocalAddr() string { return "dacapo:local" }

func (c *qchannel) RemoteAddr() string {
	if c.addr != "" {
		return "dacapo:" + c.addr
	}
	return "dacapo:accepted"
}
