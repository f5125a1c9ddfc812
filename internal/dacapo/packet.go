// Package dacapo reimplements the Da CaPo (Dynamic Configuration of
// Protocols) flexible protocol system integrated into COOL's transport
// layer by the paper (§5).
//
// Da CaPo splits communication into three layers: T (transport
// infrastructure, here a transport.Channel or a netsim link), C (end-to-end
// protocol functionality) and A (the application). Layer C is decomposed
// into protocol *functions* — error detection, acknowledgement, flow
// control, encryption, … — each realised by exchangeable *modules*
// (mechanisms). Modules are combined into a module graph (a stack in this
// reproduction, matching the measured configurations); the runtime splits
// the graph into run-to-completion inline segments at blocking-module
// boundaries, so most packets traverse the whole stack on a single
// goroutine with batches amortising the remaining hand-offs (see
// runtime.go).
//
// The management component configures the module graph from the
// application's QoS requirements (Config), performs admission control
// (ResourceManager), signals the configuration to the peer so both ends
// instantiate matching stacks (Connect/Accept), renegotiates a running
// connection's module graph in place (Reconfigure), and monitors the
// running protocol (Runtime.Stats).
package dacapo

import (
	"errors"
	"fmt"

	"cool/internal/bufpool"
)

// defaultHeadroom is the spare space kept in front of every packet payload
// so modules can prepend their protocol headers without copying the
// payload — the pointer-passing shared-memory discipline of Figure 6.
const defaultHeadroom = 64

// ErrHeadroom reports a Prepend that exceeded the packet's headroom and
// could not be satisfied in place.
var ErrHeadroom = errors.New("dacapo: insufficient packet headroom")

// Packet is the unit passed between modules. The payload lives inside a
// backing buffer with headroom at the front, so protocol headers are
// prepended in place on the way down and stripped in place on the way up.
//
// Backing buffers come from the shared bufpool arena: headers only move
// p.off, never re-slice p.buf, so the buffer's base pointer survives the
// whole traversal and bufpool's pooldebug ledger (poison, double-release,
// leak tracking) covers Da CaPo packets exactly like GIOP frames.
type Packet struct {
	buf []byte
	off int
	end int
	// owned reports that buf belongs to the arena (release it via
	// bufpool.Put). Borrowed packets wrap caller memory for the duration
	// of a synchronous inline pass and must never be recycled.
	owned bool
}

// hdrPool recycles Packet headers themselves; buffers cycle separately
// through bufpool so header reuse never pins payload memory.
var hdrPool = bufpool.NewPool(func(p *Packet) { *p = Packet{} })

// GetPacketSized returns a pooled packet with headroom and capacity for at
// least size payload octets; the payload starts empty, for callers that
// assemble it with Append (reassembly).
//
//coollint:allocator pooled packet acquisition; storage comes from bufpool
func GetPacketSized(size int) *Packet {
	p := hdrPool.Get()
	p.buf = bufpool.Get(defaultHeadroom + size) //coollint:owner packet owns the buffer; PutPacket returns it to the arena
	p.buf = p.buf[:cap(p.buf)]
	p.off = defaultHeadroom
	p.end = defaultHeadroom
	p.owned = true
	return p
}

// GetPacket returns a pooled packet with the payload copied in.
//
//coollint:allocator pooled packet acquisition; storage comes from bufpool
func GetPacket(payload []byte) *Packet {
	p := GetPacketSized(len(payload))
	p.end = p.off + copy(p.buf[p.off:], payload)
	return p
}

// wrapMessage adopts an arena-owned frame (a transport read buffer) as a
// packet without copying; off marks where the payload starts. Releasing
// the packet returns the frame to the arena.
func wrapMessage(msg []byte, off int) *Packet {
	p := hdrPool.Get()
	p.buf = msg
	p.off = off
	p.end = len(msg)
	p.owned = true
	return p
}

// wrapBorrowed wraps caller-owned bytes for a synchronous inline pass.
// The buffer is used in place (zero copy) and never joins the arena; a
// module that needs headroom or growth migrates the payload into an
// arena buffer transparently.
func wrapBorrowed(data []byte) *Packet {
	p := hdrPool.Get()
	p.buf = data
	p.off = 0
	p.end = len(data)
	p.owned = false
	return p
}

// PutPacket releases a packet: the buffer returns to the arena (when
// owned) and the header to the header pool.
//
//coollint:allocator pooled packet release
func PutPacket(p *Packet) {
	if p == nil {
		return
	}
	if p.owned {
		bufpool.Put(p.buf)
	}
	hdrPool.Put(p)
}

// NewPacket allocates a packet with the given payload copied in and the
// default headroom in front of it. It is make-backed (no arena) so tests
// and one-off users need no release discipline.
func NewPacket(payload []byte) *Packet {
	p := &Packet{
		buf: make([]byte, defaultHeadroom+len(payload)),
		off: defaultHeadroom,
		end: defaultHeadroom + len(payload),
	}
	copy(p.buf[p.off:], payload)
	return p
}

// Bytes returns the current payload (headers included once prepended).
// The slice is read-only for borrowed packets; modules that transform the
// payload in place must use WritableBytes.
func (p *Packet) Bytes() []byte { return p.buf[p.off:p.end] }

// WritableBytes returns the payload for in-place mutation (ciphers,
// scramblers). Borrowed packets wrap caller memory, so the payload first
// migrates into an arena buffer; owned packets mutate in place with no
// copy.
func (p *Packet) WritableBytes() []byte {
	if !p.owned {
		p.migrate(defaultHeadroom, 0)
	}
	return p.buf[p.off:p.end]
}

// Len returns the current payload length.
func (p *Packet) Len() int { return p.end - p.off }

// migrate moves the payload into a fresh arena buffer with headroom octets
// in front and room for tail octets behind, releasing the old buffer when
// it was arena-owned.
func (p *Packet) migrate(headroom, tail int) {
	n := p.Len()
	b := bufpool.Get(headroom + n + tail)
	nbuf := b[:cap(b)]
	copy(nbuf[headroom:], p.Bytes())
	if p.owned {
		bufpool.Put(p.buf)
	}
	p.buf = nbuf
	p.off = headroom
	p.end = headroom + n
	p.owned = true
}

// Prepend makes room for n octets in front of the payload and returns the
// slice covering them. It grows the buffer when headroom is exhausted.
func (p *Packet) Prepend(n int) []byte {
	if n <= p.off {
		p.off -= n
		return p.buf[p.off : p.off+n]
	}
	p.migrate(defaultHeadroom+n, 0)
	p.off -= n
	return p.buf[p.off : p.off+n]
}

// StripFront removes n octets from the front of the payload.
func (p *Packet) StripFront(n int) error {
	if n < 0 || n > p.Len() {
		return fmt.Errorf("dacapo: strip %d of %d payload octets", n, p.Len())
	}
	p.off += n
	return nil
}

// Append adds octets after the payload, growing the buffer as needed.
func (p *Packet) Append(b []byte) {
	if p.end+len(b) > len(p.buf) {
		p.migrate(p.off, len(b)+defaultHeadroom)
	}
	copy(p.buf[p.end:], b)
	p.end += len(b)
}

// TrimBack removes n octets from the end of the payload.
func (p *Packet) TrimBack(n int) error {
	if n < 0 || n > p.Len() {
		return fmt.Errorf("dacapo: trim %d of %d payload octets", n, p.Len())
	}
	p.end -= n
	return nil
}

// SetPayload replaces the payload, reusing the buffer when possible. b may
// alias the current payload (in-place transforms). Borrowed packets always
// migrate: their buffer is caller memory and must not be written.
func (p *Packet) SetPayload(b []byte) {
	if !p.owned || defaultHeadroom+len(b) > len(p.buf) {
		// Copy first: migrating would release a buffer b may alias.
		nb := bufpool.Get(defaultHeadroom + len(b))
		nbuf := nb[:cap(nb)]
		copy(nbuf[defaultHeadroom:], b)
		if p.owned {
			bufpool.Put(p.buf)
		}
		p.buf = nbuf
		p.owned = true
	} else {
		copy(p.buf[defaultHeadroom:], b)
	}
	p.off = defaultHeadroom
	p.end = p.off + len(b)
}

// Clone returns an independent pooled copy of the packet.
func (p *Packet) Clone() *Packet {
	c := GetPacketSized(p.Len())
	c.end = c.off + copy(c.buf[c.off:], p.Bytes())
	return c
}
