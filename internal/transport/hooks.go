package transport

import (
	"context"
	"errors"
	"sync"
)

// Hooks observes connection lifecycle events across all managers of a
// Registry. Each callback receives the transport scheme; any field may be
// nil. Hooks are installed once (before traffic) via Registry.SetHooks and
// applied by wrapping the managers handed out by Get, so transport
// implementations stay oblivious to instrumentation.
type Hooks struct {
	// Opened fires when a channel is established (dial or accept).
	Opened func(scheme string)
	// Closed fires when an established channel is closed (at most once per
	// channel, whichever side closes first).
	Closed func(scheme string)
	// Failed fires when a dial or accept attempt fails. Accept failures
	// caused by listener shutdown (ErrClosed) are not counted.
	Failed func(scheme string)
}

func (h *Hooks) opened(scheme string) {
	if h != nil && h.Opened != nil {
		h.Opened(scheme)
	}
}

func (h *Hooks) closed(scheme string) {
	if h != nil && h.Closed != nil {
		h.Closed(scheme)
	}
}

func (h *Hooks) failed(scheme string) {
	if h != nil && h.Failed != nil {
		h.Failed(scheme)
	}
}

// SetHooks installs lifecycle hooks on the registry. Managers returned by
// Get afterwards are wrapped to report to the hooks. Passing nil removes
// them.
func (r *Registry) SetHooks(h *Hooks) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = h
}

// hookManager wraps a Manager to report lifecycle events.
type hookManager struct {
	Manager
	hooks *Hooks
}

func (m hookManager) Dial(addr string) (Channel, error) {
	ch, err := m.Manager.Dial(addr)
	if err != nil {
		m.hooks.failed(m.Scheme())
		return nil, err
	}
	m.hooks.opened(m.Scheme())
	return &hookChannel{Channel: ch, scheme: m.Scheme(), hooks: m.hooks}, nil
}

// DialContext forwards to the wrapped manager's ContextDialer extension
// (or plain Dial), so hook instrumentation is transparent to ctx dialing.
func (m hookManager) DialContext(ctx context.Context, addr string) (Channel, error) {
	ch, err := DialContext(ctx, m.Manager, addr)
	if err != nil {
		m.hooks.failed(m.Scheme())
		return nil, err
	}
	m.hooks.opened(m.Scheme())
	return &hookChannel{Channel: ch, scheme: m.Scheme(), hooks: m.hooks}, nil
}

func (m hookManager) Listen(addr string) (Listener, error) {
	l, err := m.Manager.Listen(addr)
	if err != nil {
		return nil, err
	}
	return hookListener{Listener: l, scheme: m.Scheme(), hooks: m.hooks}, nil
}

type hookListener struct {
	Listener
	scheme string
	hooks  *Hooks
}

func (l hookListener) Accept() (Channel, error) {
	ch, err := l.Listener.Accept()
	if err != nil {
		if !errors.Is(err, ErrClosed) {
			l.hooks.failed(l.scheme)
		}
		return nil, err
	}
	l.hooks.opened(l.scheme)
	return &hookChannel{Channel: ch, scheme: l.scheme, hooks: l.hooks}, nil
}

type hookChannel struct {
	Channel
	scheme string
	hooks  *Hooks
	once   sync.Once
}

func (c *hookChannel) Close() error {
	err := c.Channel.Close()
	c.once.Do(func() { c.hooks.closed(c.scheme) })
	return err
}
