// Package orb implements the COOL Object Request Broker core of the
// reproduction: the object adapter, the server-side request loop, and the
// client-side invocation machinery, wired to the GIOP message layer and the
// generic transport layer.
//
// The QoS extensions follow §4 of the paper:
//
//   - A client proxy (Object) exposes SetQoSParameter. Never calling it
//     keeps the binding implicit and the wire protocol standard GIOP 1.0;
//     calling it turns the binding explicit and switches the connection to
//     the QoS-extended GIOP 9.9 with qos_params in every Request.
//   - Bilateral negotiation: the server negotiates the requested QoS
//     against the object implementation's capability and NACKs with a
//     NO_RESOURCES system exception when it cannot comply (Figure 3).
//   - Unilateral negotiation: when binding, the client ORB passes the QoS
//     requirements to the transport channel's SetQoSParameter; transports
//     without QoS support refuse, Da CaPo maps them onto a protocol
//     configuration and resources (§4.3).
//
// The object adapter serves both sides, as in COOL (Figure 1): servant
// dispatch below the skeletons on the server, and the colocation shortcut
// below the stubs on the client.
package orb

import (
	"context"
	"fmt"
	"sync"

	"cool/internal/cdr"
	"cool/internal/ior"
	"cool/internal/qos"
)

// Invocation carries one decoded request to a servant. It is valid until
// the ReplyWriter returned by Invoke has run: the returned writer may read
// the record and alias the arguments Args decodes, but nothing may retain
// either beyond that, because the ORB then recycles the record and the
// request buffers.
type Invocation struct {
	// Operation is the request's operation name.
	Operation string
	// QoS is the granted QoS for this invocation (empty for plain GIOP).
	QoS qos.Set
	// Args is positioned at the CDR-encoded operation arguments.
	Args *cdr.Decoder
	// Principal is the requesting principal identity blob.
	Principal []byte
	// Ctx is cancelled when the serving connection is torn down or when a
	// Shutdown drain gives up on the request; long-running servants should
	// observe it. For colocated dispatch it is the caller's context.
	Ctx context.Context
}

// ReplyWriter encodes the operation results into the Reply body.
type ReplyWriter func(*cdr.Encoder)

// Servant is an object implementation. Generated skeletons (cmd/chic)
// implement Servant by unmarshalling Args, upcalling the implementation and
// marshalling the results — hand-written servants may do the same directly.
//
// Invoke returns the reply body writer, or an error: a
// *giop.SystemException or *UserError travels to the client as the
// corresponding CORBA exception; any other error is mapped to UNKNOWN.
type Servant interface {
	// RepoID returns the repository id of the servant's interface,
	// e.g. "IDL:demo/Echo:1.0".
	RepoID() string
	// Invoke handles one request.
	Invoke(inv *Invocation) (ReplyWriter, error)
}

// UserError raises an IDL-declared exception from a servant. Body encodes
// the exception members; they are delivered to the client as an
// encapsulation inside the USER_EXCEPTION reply.
type UserError struct {
	ID   string
	Body func(*cdr.Encoder)
}

// Error implements the error interface.
func (e *UserError) Error() string { return "user exception " + e.ID }

// entry is one activated object.
type entry struct {
	key     string
	servant Servant
	// capability is the object implementation's QoS capability used in
	// the bilateral negotiation; nil means "no QoS support" (every
	// QoS-carrying request is NACKed unless its ranges reach zero
	// service).
	capability qos.Capability
	// inline dispatches requests on the connection's read goroutine
	// instead of the worker pool; see WithInlineDispatch.
	inline bool
}

// Adapter is the object adapter: it maps object keys to servants and
// dispatches requests — "services provided through an Object Adapter:
// generation and interpretation of object references, method invocation,
// object activation, mapping object references to implementations" (§2).
type Adapter struct {
	mu       sync.RWMutex
	entries  map[string]*entry
	forwards map[string]ior.Ref
	nextID   uint64
}

// NewAdapter returns an empty object adapter.
func NewAdapter() *Adapter {
	return &Adapter{
		entries:  make(map[string]*entry),
		forwards: make(map[string]ior.Ref),
	}
}

// ServantOption configures activation.
type ServantOption interface{ applyServant(*entry) }

type servantOptFunc func(*entry)

func (f servantOptFunc) applyServant(e *entry) { f(e) }

// WithCapability advertises the object implementation's QoS capability:
// the bound against which the server negotiates bilateral QoS.
func WithCapability(c qos.Capability) ServantOption {
	return servantOptFunc(func(e *entry) { e.capability = c })
}

// WithKey fixes the object key instead of generating one.
func WithKey(key string) ServantOption {
	return servantOptFunc(func(e *entry) { e.key = key })
}

// WithInlineDispatch dispatches this servant's requests directly on the
// server connection's read goroutine instead of handing them to the worker
// pool — the zero-hop fast path for servants that never block. The
// trade-offs: a slow Invoke stalls every other request multiplexed on the
// connection, and CancelRequest frames queued behind an in-flight request
// are only read after it completes (cancellation is therefore only checked
// post-dispatch). Use it for short, non-blocking operations.
func WithInlineDispatch() ServantOption {
	return servantOptFunc(func(e *entry) { e.inline = true })
}

// Activate registers a servant and returns its object key.
func (a *Adapter) Activate(s Servant, opts ...ServantOption) ([]byte, error) {
	e := &entry{servant: s}
	for _, o := range opts {
		o.applyServant(e)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e.key == "" {
		a.nextID++
		e.key = fmt.Sprintf("obj-%d", a.nextID)
	}
	if _, dup := a.entries[e.key]; dup {
		return nil, fmt.Errorf("orb: object key %q already active", e.key)
	}
	a.entries[e.key] = e
	return []byte(e.key), nil
}

// Deactivate removes an activated object.
func (a *Adapter) Deactivate(key []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.entries, string(key))
}

// lookup resolves an object key.
func (a *Adapter) lookup(key []byte) (*entry, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	e, ok := a.entries[string(key)]
	return e, ok
}

// RegisterForward makes requests for an object key answer with
// LOCATION_FORWARD to target — the GIOP mechanism behind object migration:
// clients transparently rebind to the forwarded reference.
func (a *Adapter) RegisterForward(key []byte, target ior.Ref) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.forwards[string(key)] = target
}

// lookupForward resolves a forwarding entry.
func (a *Adapter) lookupForward(key []byte) (ior.Ref, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ref, ok := a.forwards[string(key)]
	return ref, ok
}

// Len reports the number of active objects.
func (a *Adapter) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.entries)
}
