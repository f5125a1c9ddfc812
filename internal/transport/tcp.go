package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"cool/internal/bufpool"
	"cool/internal/qos"
)

// maxTCPMessage bounds inbound frames so a hostile length prefix cannot
// drive an arbitrary allocation.
const maxTCPMessage = 64 << 20

// TCPManager implements the "tcp" transport: COOL's TCP/IP channel with
// explicit buffer management (_TcpComChannel + _TcpBuffer in Figure 8).
// Messages are framed with a 4-octet big-endian length prefix; TCP has no
// QoS support.
type TCPManager struct{}

var _ Manager = TCPManager{}

// NewTCPManager returns the TCP transport manager.
func NewTCPManager() TCPManager { return TCPManager{} }

// Scheme returns "tcp".
func (TCPManager) Scheme() string { return "tcp" }

// Capability returns nil: TCP advertises no QoS dimensions.
func (TCPManager) Capability() qos.Capability { return nil }

// Dial connects to a TCP listener at host:port.
func (TCPManager) Dial(addr string) (Channel, error) {
	return TCPManager{}.DialContext(context.Background(), addr)
}

// DialContext implements ContextDialer: the connection attempt is bounded
// by the context's deadline and aborted on cancellation.
func (TCPManager) DialContext(ctx context.Context, addr string) (Channel, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial tcp %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newTCPChannel(conn), nil
}

// Listen binds a TCP listener; an empty addr binds an ephemeral port on
// the loopback interface.
func (TCPManager) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen tcp %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Channel, error) {
	conn, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newTCPChannel(conn), nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }
func (t *tcpListener) Close() error { return t.l.Close() }

// tcpChannel frames messages over a net.Conn. The prefix and gather
// buffers are reused across writes — the _TcpBuffer role.
type tcpChannel struct {
	conn net.Conn

	writeMu sync.Mutex
	// pbuf holds the 4-octet length prefixes and iov the gather list for
	// WriteMessages; both are reused across batches (and cleared after each
	// write so recycled frames are not pinned by the backing array). drain
	// is the view of iov that WriteTo consumes; a field, so taking its
	// address costs no allocation.
	pbuf  []byte
	iov   net.Buffers
	drain net.Buffers

	readMu sync.Mutex
	// rbuf is the inbound staging buffer (lazily allocated); rpos..rlen is
	// the unconsumed window. Batching the length prefix and payload into
	// one kernel read halves the syscalls per frame on the hot path.
	rbuf       []byte
	rpos, rlen int
}

// tcpReadBuf sizes the staging buffer: large enough that a typical
// invocation frame (header + small payload) arrives in one read.
const tcpReadBuf = 64 << 10

func newTCPChannel(conn net.Conn) *tcpChannel {
	return &tcpChannel{conn: conn}
}

func (c *tcpChannel) WriteMessage(p []byte) error {
	return c.WriteMessages([][]byte{p})
}

// WriteMessages sends all frames in one vectored write (writev via
// net.Buffers), alternating reused length prefixes with the callers'
// payloads, so a flush of N coalesced messages costs one syscall instead
// of N.
func (c *tcpChannel) WriteMessages(frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if cap(c.pbuf) < 4*len(frames) {
		c.pbuf = make([]byte, 4*len(frames))
	}
	pbuf := c.pbuf[:4*len(frames)]
	iov := c.iov[:0]
	for i, p := range frames {
		pfx := pbuf[4*i : 4*i+4]
		binary.BigEndian.PutUint32(pfx, uint32(len(p)))
		iov = append(iov, pfx)
		if len(p) > 0 {
			iov = append(iov, p)
		}
	}
	// WriteTo advances iov as it drains; keep the full slice so the backing
	// array can be cleared afterwards — frames are recycled by the caller
	// and must not stay reachable from the channel.
	c.iov, c.drain = iov, iov
	_, err := c.drain.WriteTo(c.conn)
	clear(c.iov[:cap(c.iov)])
	c.iov, c.drain = c.iov[:0], nil
	if err != nil {
		return fmt.Errorf("transport: tcp writev: %w", err)
	}
	return nil
}

// fill reads more inbound bytes into the staging buffer. Callers hold
// readMu. A read that returns data with an error defers the error to the
// next call, like bufio.
func (c *tcpChannel) fill() error {
	if c.rbuf == nil {
		c.rbuf = make([]byte, tcpReadBuf)
	}
	if c.rpos == c.rlen {
		c.rpos, c.rlen = 0, 0
	} else if c.rlen == len(c.rbuf) {
		c.rlen = copy(c.rbuf, c.rbuf[c.rpos:c.rlen])
		c.rpos = 0
	}
	n, err := c.conn.Read(c.rbuf[c.rlen:])
	c.rlen += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// consume copies the next len(p) buffered-or-wire bytes into p.
func (c *tcpChannel) consume(p []byte) error {
	got := copy(p, c.rbuf[c.rpos:c.rlen])
	c.rpos += got
	if got == len(p) {
		return nil
	}
	// Frame larger than the staging buffer: read the tail directly.
	_, err := io.ReadFull(c.conn, p[got:])
	return err
}

func (c *tcpChannel) ReadMessage() ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	for c.rlen-c.rpos < 4 {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	n := binary.BigEndian.Uint32(c.rbuf[c.rpos:])
	c.rpos += 4
	if n > maxTCPMessage {
		return nil, fmt.Errorf("transport: tcp frame of %d octets exceeds limit", n)
	}
	// Pooled read buffer: ownership transfers to the caller, which recycles
	// it via PutBuffer once the decoded message is dropped.
	p := bufpool.Get(int(n))[:n]
	if err := c.consume(p); err != nil {
		bufpool.Put(p)
		return nil, fmt.Errorf("transport: tcp short frame: %w", err)
	}
	return p, nil
}

// Buffered is false: every round ends after one frame. No measured
// workload runs a round-gathering reader over TCP, so the staging buffer
// is not inspected for a second frame.
func (c *tcpChannel) Buffered() bool { return false }

func (c *tcpChannel) SetQoSParameter(params qos.Set) (qos.Set, error) {
	return NoQoS(params)
}

func (c *tcpChannel) Close() error       { return c.conn.Close() }
func (c *tcpChannel) LocalAddr() string  { return c.conn.LocalAddr().String() }
func (c *tcpChannel) RemoteAddr() string { return c.conn.RemoteAddr().String() }
