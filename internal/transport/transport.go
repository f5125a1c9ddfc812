// Package transport implements COOL's generic transport protocol layer.
//
// The original COOL runtime wraps each transport protocol in a class derived
// from _COOL_ComChannel and manages connections through _ComManager
// subclasses (paper Figure 8). This package mirrors that structure with Go
// interfaces:
//
//   - Channel is one established, message-oriented connection (the
//     _COOL_ComChannel analogue). The paper's QoS extension adds a
//     setQoSParameter method to the abstract transport class; Channel
//     carries the same method. Transports without QoS support (TCP, inproc)
//     return ErrQoSNotSupported, exactly as "TCP does not implement the
//     setQoSParameter method" (§4.3).
//   - Manager creates and accepts channels for one transport scheme (the
//     _ComManager analogue).
//   - Registry maps scheme names to managers, which is how COOL "enables
//     support for multiple protocols and eases integration of new
//     protocols" (§2). The Da CaPo transport registers here as the third
//     alternative (§5).
//
// Channels transport opaque, framed messages: the message layer (GIOP)
// formats them, the transport only moves them — COOL's alternative (i)
// integration (Figure 7).
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cool/internal/bufpool"
	"cool/internal/qos"
)

// GetBuffer returns a zero-length buffer with capacity at least n from the
// shared frame arena; PutBuffer recycles one. They are thin aliases of the
// bufpool arena so transport users can honour the Channel ownership
// contract without importing the pool package directly.
func GetBuffer(n int) []byte { return bufpool.Get(n) }

// PutBuffer returns a frame received from Channel.ReadMessage (or any
// other buffer) to the shared arena. The caller must not retain any alias
// of p afterwards.
func PutBuffer(p []byte) { bufpool.Put(p) }

// Errors shared by transport implementations.
var (
	// ErrQoSNotSupported is returned by SetQoSParameter on transports
	// without QoS support when a non-empty requirement set is given.
	ErrQoSNotSupported = errors.New("transport: QoS not supported by this transport")
	// ErrClosed is returned by operations on a closed channel or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownScheme is returned by the registry for unregistered
	// transport schemes.
	ErrUnknownScheme = errors.New("transport: unknown scheme")
)

// Channel is one established transport connection carrying whole messages.
// Implementations must allow one concurrent reader and one concurrent
// writer; Close may be called from any goroutine.
//
// Buffer ownership contract: WriteMessage and WriteMessages treat their
// frames as borrowed for the duration of the call only — the transport
// copies or transmits them before returning, so the caller may immediately
// reuse or recycle them (the ORB returns marshalled frames to the shared
// arena right after a write).
// ReadMessage hands the returned buffer to the caller with exclusive
// ownership: the transport never touches it again, so the caller may alias
// it from decoded messages and, once the message is dropped, recycle it
// via PutBuffer. Transports draw read buffers from the same arena, making
// the steady-state receive path allocation-free.
type Channel interface {
	// WriteMessage sends one message. p is borrowed only for the call.
	WriteMessage(p []byte) error
	// WriteMessages sends the frames back to back, framed exactly as if
	// written one by one, in as few carrier operations as the transport
	// manages (TCP: one vectored write). An empty batch is a no-op. After
	// an error some frames may have been transmitted; the connection is
	// broken, as after a failed WriteMessage.
	WriteMessages(frames [][]byte) error
	// ReadMessage receives the next message. It returns io.EOF after the
	// peer closed the connection. The returned buffer is owned by the
	// caller; recycle with PutBuffer when done.
	ReadMessage() ([]byte, error)
	// SetQoSParameter performs the unilateral QoS negotiation between the
	// message layer and the transport (§4.3): the transport maps the
	// parameters onto its configuration and resources and returns the
	// granted set, or an error when the requirements cannot be met
	// (*qos.NegotiationError) or QoS is not supported at all
	// (ErrQoSNotSupported).
	SetQoSParameter(params qos.Set) (qos.Set, error)
	// Close releases the connection.
	Close() error
	// LocalAddr and RemoteAddr identify the endpoints (transport-specific
	// syntax, for diagnostics).
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound channels.
type Listener interface {
	Accept() (Channel, error)
	// Addr returns the bound address in the transport's syntax, suitable
	// for a Ref profile.
	Addr() string
	Close() error
}

// Manager creates channels for one transport scheme.
type Manager interface {
	// Scheme is the registry key ("tcp", "inproc", "dacapo").
	Scheme() string
	// Dial connects to a peer listener.
	Dial(addr string) (Channel, error)
	// Listen binds a listener. An empty addr asks the transport to pick
	// (e.g. an ephemeral TCP port).
	Listen(addr string) (Listener, error)
	// Capability advertises the QoS the transport can support, used in
	// exported object references.
	Capability() qos.Capability
}

// ContextDialer is an optional Manager extension for transports whose
// connection setup can honour cancellation and deadlines. The ORB probes
// for it when it holds a context and falls back to plain Dial otherwise.
type ContextDialer interface {
	// DialContext connects like Dial but aborts when ctx is done.
	DialContext(ctx context.Context, addr string) (Channel, error)
}

// DialContext dials addr through m, using the ContextDialer extension when
// the manager provides it. Without the extension the dial itself cannot be
// interrupted, but an already-expired context still fails fast.
func DialContext(ctx context.Context, m Manager, addr string) (Channel, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cd, ok := m.(ContextDialer); ok {
		return cd.DialContext(ctx, addr)
	}
	return m.Dial(addr)
}

// Registry maps transport schemes to managers. The zero value is empty;
// NewRegistry returns one preloaded with the standard transports.
type Registry struct {
	mu       sync.RWMutex
	managers map[string]Manager
	hooks    *Hooks
}

// NewRegistry returns a registry containing the given managers.
func NewRegistry(managers ...Manager) *Registry {
	r := &Registry{managers: make(map[string]Manager, len(managers))}
	for _, m := range managers {
		r.managers[m.Scheme()] = m
	}
	return r
}

// Register adds or replaces the manager for its scheme.
func (r *Registry) Register(m Manager) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.managers == nil {
		r.managers = make(map[string]Manager)
	}
	r.managers[m.Scheme()] = m
}

// Get returns the manager for a scheme.
func (r *Registry) Get(scheme string) (Manager, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.managers[scheme]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
	}
	if r.hooks != nil {
		return hookManager{Manager: m, hooks: r.hooks}, nil
	}
	return m, nil
}

// Schemes lists the registered scheme names (unordered).
func (r *Registry) Schemes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.managers))
	for s := range r.managers {
		out = append(out, s)
	}
	return out
}

// NoQoS is a helper for transports without QoS support: it grants the empty
// set and refuses anything else.
func NoQoS(params qos.Set) (qos.Set, error) {
	if len(params) == 0 {
		return nil, nil
	}
	return nil, ErrQoSNotSupported
}
