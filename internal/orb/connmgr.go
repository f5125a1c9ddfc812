package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cool/internal/ior"
	"cool/internal/qos"
	"cool/internal/transport"
)

// errShutdown reports an operation on an ORB whose Shutdown has begun.
var errShutdown = errors.New("orb: shut down")

// retryableError marks a failure that happened before the request could
// have reached a servant (dial errors, registrations that raced a
// connection teardown). InvokeCtx retries such failures with backoff;
// everything after the request frame is on the wire is at-most-once and
// never wrapped.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// makeConnKey builds the connection-cache key for a profile and QoS
// requirement — one connection per (endpoint, protocol, QoS), so a QoS
// change maps to a transport reconfiguration exactly as in §4.1.
func makeConnKey(p ior.Profile, qosKey string) connKey {
	return connKey{scheme: p.Transport, protocol: p.Protocol, addr: p.Address, qosKey: qosKey}
}

// dialCall is one in-flight dial shared by every caller that needs the
// same connection: single-flight per key, so a burst of invocations
// against a cold (or freshly broken) endpoint produces one transport
// handshake.
type dialCall struct {
	done    chan struct{}
	conn    *clientConn
	granted qos.Set
	err     error
}

// connManager owns the client side of the connection lifecycle: dialing
// (with context), the unilateral QoS negotiation against the transport,
// the (endpoint, protocol, QoS) connection cache, single-flight dial
// coalescing, and teardown on Shutdown. It is the extracted "connection
// management" slice of the ORB core; the ORB delegates to it and the
// invocation layer never touches transport managers directly.
type connManager struct {
	registry *transport.Registry
	ins      *instruments
	resolve  func(protocol string) (Codec, error)

	mu      sync.Mutex
	conns   map[connKey]*clientConn
	dialing map[connKey]*dialCall
	closed  bool
}

func newConnManager(registry *transport.Registry, ins *instruments, resolve func(string) (Codec, error)) *connManager {
	return &connManager{
		registry: registry,
		ins:      ins,
		resolve:  resolve,
		conns:    make(map[connKey]*clientConn),
		dialing:  make(map[connKey]*dialCall),
	}
}

// cachedLocked publishes the cache size to the conns_cached gauge. Caller
// holds cm.mu.
func (cm *connManager) cachedLocked() {
	cm.ins.connsCached.Set(int64(len(cm.conns)))
}

// get returns the client connection for a profile and QoS requirement
// (reqKey is req.Key()), dialing it on first use. A broken cached
// connection is replaced by a fresh dial (counted by orb.client.redials);
// concurrent callers share one dial.
func (cm *connManager) get(ctx context.Context, p ior.Profile, req qos.Set, reqKey string) (*clientConn, qos.Set, error) {
	codec, err := cm.resolve(p.Protocol)
	if err != nil {
		return nil, nil, err
	}
	key := makeConnKey(p, reqKey)
	for {
		cm.mu.Lock()
		if cm.closed {
			cm.mu.Unlock()
			return nil, nil, errShutdown
		}
		if c := cm.conns[key]; c != nil {
			if !c.isClosed() {
				granted := c.granted
				cm.mu.Unlock()
				return c, granted, nil
			}
			// The cached connection broke; the dial below replaces it
			// (counted even when that dial needs backoff retries to land).
			delete(cm.conns, key)
			cm.cachedLocked()
			cm.ins.redials.Inc()
		}
		if call := cm.dialing[key]; call != nil {
			cm.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			if call.err != nil {
				return nil, nil, call.err
			}
			if !call.conn.isClosed() {
				return call.conn, call.granted, nil
			}
			continue // the shared connection already broke: dial again
		}
		call := &dialCall{done: make(chan struct{})}
		cm.dialing[key] = call
		cm.mu.Unlock()

		conn, granted, err := cm.dial(ctx, codec, p, req)

		cm.mu.Lock()
		delete(cm.dialing, key)
		var stale *clientConn
		if err == nil {
			if cm.closed {
				// Shutdown swept the cache while this dial was in flight;
				// caching now would leak the connection past Shutdown.
				stale = conn
				conn, granted, err = nil, nil, errShutdown
			} else {
				cm.conns[key] = conn
				cm.cachedLocked()
			}
		}
		call.conn, call.granted, call.err = conn, granted, err
		cm.mu.Unlock()
		close(call.done)
		if stale != nil {
			stale.close()
		}
		return conn, granted, err
	}
}

// dial establishes one connection: transport dial under ctx, then the
// unilateral QoS negotiation between message layer and transport.
func (cm *connManager) dial(ctx context.Context, codec Codec, p ior.Profile, req qos.Set) (*clientConn, qos.Set, error) {
	mgr, err := cm.registry.Get(p.Transport)
	if err != nil {
		return nil, nil, err
	}
	conns := cm.ins.conns(p.Transport)
	ch, err := transport.DialContext(ctx, mgr, p.Address)
	if err != nil {
		conns.failed.Inc()
		err = fmt.Errorf("orb: dial %s://%s: %w", p.Transport, p.Address, err)
		if ctx.Err() == nil {
			// Nothing reached the peer: safe to retry with backoff.
			err = &retryableError{err: err}
		}
		return nil, nil, err
	}
	conns.open()
	// Unilateral QoS negotiation between message layer and transport.
	granted, err := ch.SetQoSParameter(req)
	if err != nil {
		if errors.Is(err, transport.ErrQoSNotSupported) {
			// The transport has no QoS machinery. The binding is only
			// viable when the requirements tolerate zero service.
			granted, err = qos.Negotiate(req, p.Capability)
		}
		if err != nil {
			ch.Close()
			conns.close()
			return nil, nil, err
		}
	}
	return newClientConn(ch, codec, granted, cm.ins, conns, maxInFlight), granted, nil
}

// drop removes and closes a cached client connection (used after a QoS
// NACK aborts the binding it served).
func (cm *connManager) drop(p ior.Profile, qosKey string, c *clientConn) {
	key := makeConnKey(p, qosKey)
	cm.mu.Lock()
	if cm.conns[key] == c {
		delete(cm.conns, key)
		cm.cachedLocked()
	}
	cm.mu.Unlock()
	c.close()
}

// close tears down every cached connection and refuses further dials.
// Dials already in flight observe the closed flag before publishing and
// close their fresh connection instead of caching it.
func (cm *connManager) close() {
	cm.mu.Lock()
	if cm.closed {
		cm.mu.Unlock()
		return
	}
	cm.closed = true
	conns := cm.conns
	cm.conns = nil
	cm.cachedLocked()
	cm.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
}
