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

// inprocChannel is one direction pair of buffered message queues. Each
// queue holds 16 elements, and an element is one WriteMessage frame or
// all the frames of one WriteMessages call, so a writer blocks once 16
// elements wait, however many frames they carry.
type inprocChannel struct {
	addr  string
	local string
	send  chan inprocMsg
	recv  chan inprocMsg
	// closed is shared between both ends; closing either end tears the
	// connection down for both.
	closed chan struct{}
	once   *sync.Once
	// batch holds the frames of a WriteMessages element the reader has
	// not handed out yet; head indexes the next. Reader-owned.
	batch *[][]byte
	head  int
}

// inprocMsg is one queue element: a single frame, or the frames of one
// WriteMessages call in a pooled holder.
type inprocMsg struct {
	frame []byte
	batch *[][]byte
}

// framesPool recycles the holders of WriteMessages elements. The reset
// drops the frame aliases: ReadMessage has handed each frame on.
var framesPool = bufpool.NewPool(func(b *[][]byte) {
	clear(*b)
	*b = (*b)[:0]
})

func newInprocPair(addr string) (client, server *inprocChannel) {
	a2b := make(chan inprocMsg, 16)
	b2a := make(chan inprocMsg, 16)
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
	case c.send <- inprocMsg{frame: msg}:
		return nil
	case <-c.closed:
		bufpool.Put(msg)
		return ErrClosed
	}
}

// WriteMessages queues the copied frames as one element, so a batch costs
// one queue hand-off and the reader finds the rest Buffered.
func (c *inprocChannel) WriteMessages(frames [][]byte) error {
	switch len(frames) {
	case 0:
		return nil
	case 1:
		return c.WriteMessage(frames[0])
	}
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	h := framesPool.Get()
	for _, p := range frames {
		*h = append(*h, append(bufpool.Get(len(p)), p...)) //coollint:owner the holder keeps the copy until ReadMessage hands it out
	}
	select {
	case c.send <- inprocMsg{batch: h}:
		return nil
	case <-c.closed:
		for _, f := range *h {
			bufpool.Put(f)
		}
		framesPool.Put(h)
		return ErrClosed
	}
}

func (c *inprocChannel) ReadMessage() ([]byte, error) {
	if c.batch != nil {
		return c.nextFrame(), nil
	}
	var m inprocMsg
	select {
	case m = <-c.recv:
	case <-c.closed:
		// Drain messages queued before close so in-flight replies are not
		// lost on graceful shutdown.
		select {
		case m = <-c.recv:
		default:
			return nil, io.EOF
		}
	}
	if m.batch == nil {
		return m.frame, nil
	}
	c.batch, c.head = m.batch, 0
	return c.nextFrame(), nil
}

// nextFrame hands out the next frame of the current batch element and
// recycles the holder after its last.
func (c *inprocChannel) nextFrame() []byte {
	b := *c.batch
	f := b[c.head]
	c.head++
	if c.head == len(b) {
		framesPool.Put(c.batch)
		c.batch = nil
	}
	return f
}

// Buffered reports a partly read batch element or a queued element.
func (c *inprocChannel) Buffered() bool {
	return c.batch != nil || len(c.recv) > 0
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
