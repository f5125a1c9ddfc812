package transport

import (
	"fmt"
	"io"
	"sync"

	"cool/internal/bufpool"
	"cool/internal/qos"
)

// InprocManager implements the "inproc" transport, the stand-in for COOL's
// Chorus IPC channel: host-local message passing with no QoS support.
// Addresses are plain names in a namespace owned by the manager; both ends
// must use the same manager instance (one per process, typically owned by
// the ORB), mirroring Chorus IPC's node-local scope.
type InprocManager struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  int
}

var _ Manager = (*InprocManager)(nil)

// NewInprocManager returns an empty in-process transport namespace.
func NewInprocManager() *InprocManager {
	return &InprocManager{listeners: make(map[string]*inprocListener)}
}

// Scheme returns "inproc".
func (m *InprocManager) Scheme() string { return "inproc" }

// Capability returns nil: like Chorus IPC in the paper, inproc advertises
// no QoS dimensions.
func (m *InprocManager) Capability() qos.Capability { return nil }

// Listen binds a named endpoint; an empty addr allocates a fresh name.
func (m *InprocManager) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		m.nextAuto++
		addr = fmt.Sprintf("auto-%d", m.nextAuto)
	}
	if _, exists := m.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: inproc address %q already bound", addr)
	}
	l := &inprocListener{
		mgr:     m,
		addr:    addr,
		backlog: make(chan *inprocChannel, 16),
		done:    make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial connects to a named endpoint bound in this manager.
func (m *InprocManager) Dial(addr string) (Channel, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: inproc address %q not bound", addr)
	}
	client, server := newInprocPair(addr)
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: inproc address %q: %w", addr, ErrClosed)
	}
}

func (m *InprocManager) unbind(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.listeners, addr)
}

type inprocListener struct {
	mgr     *InprocManager
	addr    string
	backlog chan *inprocChannel
	done    chan struct{}
	once    sync.Once
}

func (l *inprocListener) Accept() (Channel, error) {
	select {
	case ch := <-l.backlog:
		return ch, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.mgr.unbind(l.addr)
	})
	return nil
}

// inprocChannel is one direction pair of buffered message queues.
type inprocChannel struct {
	addr  string
	local string
	send  chan []byte
	recv  chan []byte
	// closed is shared between both ends; closing either end tears the
	// connection down for both.
	closed chan struct{}
	once   *sync.Once
}

func newInprocPair(addr string) (client, server *inprocChannel) {
	a2b := make(chan []byte, 16)
	b2a := make(chan []byte, 16)
	closed := make(chan struct{})
	once := &sync.Once{}
	client = &inprocChannel{addr: addr, local: "client", send: a2b, recv: b2a, closed: closed, once: once}
	server = &inprocChannel{addr: addr, local: "server", send: b2a, recv: a2b, closed: closed, once: once}
	return client, server
}

func (c *inprocChannel) WriteMessage(p []byte) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	// Copy into a pooled buffer: the caller may reuse its buffer, and
	// inproc must behave like a real transport that serialises onto the
	// wire. The receiver takes ownership and recycles via PutBuffer.
	msg := append(bufpool.Get(len(p)), p...)
	select {
	case c.send <- msg:
		return nil
	case <-c.closed:
		bufpool.Put(msg)
		return ErrClosed
	}
}

// WriteMessages queues the frames one by one: a queue hand-off has no
// carrier operation to share.
func (c *inprocChannel) WriteMessages(frames [][]byte) error {
	for _, p := range frames {
		if err := c.WriteMessage(p); err != nil {
			return err
		}
	}
	return nil
}

func (c *inprocChannel) ReadMessage() ([]byte, error) {
	select {
	case msg := <-c.recv:
		return msg, nil
	case <-c.closed:
		// Drain messages queued before close so in-flight replies are not
		// lost on graceful shutdown.
		select {
		case msg := <-c.recv:
			return msg, nil
		default:
			return nil, io.EOF
		}
	}
}

func (c *inprocChannel) SetQoSParameter(params qos.Set) (qos.Set, error) {
	return NoQoS(params)
}

func (c *inprocChannel) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *inprocChannel) LocalAddr() string  { return "inproc:" + c.addr + "/" + c.local }
func (c *inprocChannel) RemoteAddr() string { return "inproc:" + c.addr }
