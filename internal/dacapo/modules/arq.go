package modules

import (
	"encoding/binary"
	"fmt"
	"time"

	"cool/internal/dacapo"
)

// ARQ mechanisms. Both share a 5-octet header: [type:1][seq:4] with type
// DATA or ACK. Each module instance is full-duplex: it is the sender for
// its endpoint's outbound packets and the receiver for inbound ones, so a
// single stack supports request/reply traffic.

const (
	arqHdrLen = 5
	arqData   = byte(0)
	arqAck    = byte(1)
)

func putArqHdr(dst []byte, typ byte, seq uint32) {
	dst[0] = typ
	binary.BigEndian.PutUint32(dst[1:], seq)
}

// irq is the idle-repeat-request mechanism: stop-and-wait ARQ. Exactly one
// packet is outstanding; the next is accepted only after the ACK arrives.
// Its "ineffective flow control" is what collapses throughput in the
// paper's Figure 9 ("the low throughput for the IRQ C module is caused by
// the ineffective flow control of the idle-repeat-request protocol").
type irq struct {
	dacapo.BaseModule

	rto        time.Duration
	maxRetries int

	// sender state
	sendSeq     uint32
	awaiting    bool
	outstanding *dacapo.Packet
	retries     int
	cancelTimer func()

	// receiver state
	recvSeq uint32
}

type irqTimeout struct{ seq uint32 }

func newIRQ(args dacapo.Args) (dacapo.Module, error) {
	rto, err := args.Duration("rto", 100*time.Millisecond)
	if err != nil {
		return nil, err
	}
	retries, err := args.Int("retries", 20)
	if err != nil {
		return nil, err
	}
	return &irq{rto: rto, maxRetries: retries}, nil
}

func (m *irq) Name() string { return "irq" }

// Blocking marks irq for threaded scheduling: it pauses intake, arms
// retransmission timers, and emits ACKs down from its up path.
func (m *irq) Blocking() {}

func (m *irq) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	putArqHdr(p.Prepend(arqHdrLen), arqData, m.sendSeq)
	m.outstanding = p.Clone() //coollint:owner kept for retransmission until its ACK (HandleUp) or Stop releases it
	m.awaiting = true
	m.retries = 0
	ctx.PauseDown() // stop-and-wait: nothing else until the ACK
	m.cancelTimer = ctx.After(m.rto, irqTimeout{seq: m.sendSeq})
	return ctx.EmitDown(p)
}

func (m *irq) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	if p.Len() < arqHdrLen {
		ctx.Drop(p)
		return nil
	}
	hdr := p.Bytes()[:arqHdrLen]
	typ, seq := hdr[0], binary.BigEndian.Uint32(hdr[1:])
	if err := p.StripFront(arqHdrLen); err != nil {
		return err
	}
	switch typ {
	case arqAck:
		if m.awaiting && seq == m.sendSeq {
			m.stopTimer()
			m.awaiting = false
			dacapo.PutPacket(m.outstanding)
			m.outstanding = nil
			m.sendSeq++
			ctx.ResumeDown()
		}
		ctx.Drop(p)
		return nil
	case arqData:
		switch {
		case seq == m.recvSeq:
			m.recvSeq++
			if err := sendAck(ctx, seq); err != nil {
				return err
			}
			return ctx.EmitUp(p)
		case seq < m.recvSeq:
			// Duplicate: our ACK was lost; re-acknowledge.
			if err := sendAck(ctx, seq); err != nil {
				return err
			}
			ctx.Drop(p)
			return nil
		default:
			// Cannot happen with a stop-and-wait peer; discard.
			ctx.Drop(p)
			return nil
		}
	default:
		ctx.Drop(p)
		return nil
	}
}

func (m *irq) HandleEvent(ctx *dacapo.Context, ev any) error {
	to, ok := ev.(irqTimeout)
	if !ok || !m.awaiting || to.seq != m.sendSeq {
		return nil // stale timer
	}
	m.retries++
	if m.retries > m.maxRetries {
		return fmt.Errorf("modules: irq: packet %d lost after %d retries", m.sendSeq, m.maxRetries)
	}
	if err := ctx.EmitDown(m.outstanding.Clone()); err != nil {
		return err
	}
	m.cancelTimer = ctx.After(backoff(m.rto, m.retries), to)
	return nil
}

func (m *irq) Stop(ctx *dacapo.Context) error {
	m.stopTimer()
	if m.outstanding != nil {
		dacapo.PutPacket(m.outstanding)
		m.outstanding = nil
	}
	return nil
}

func (m *irq) stopTimer() {
	if m.cancelTimer != nil {
		m.cancelTimer()
		m.cancelTimer = nil
	}
}

func sendAck(ctx *dacapo.Context, seq uint32) error {
	ack := dacapo.GetPacket(nil)
	putArqHdr(ack.Prepend(arqHdrLen), arqAck, seq)
	return ctx.EmitDown(ack)
}

// window is the sliding-window go-back-N ARQ mechanism: up to `window`
// packets outstanding, cumulative ACKs, full-window retransmission on
// timeout. It keeps the pipe full where irq idles it.
//
// Per packet it neither allocates nor sends an ACK. Its one retransmission
// timer runs while packets are outstanding and stops when the last is
// acknowledged: an ACK that advances the window only records when progress
// happened, and a firing timer that finds progress since it was armed
// re-arms for the rest of the timeout. The receiver acknowledges once per
// pump round (EndRound): one cumulative ACK for the round's in-order
// packets, or a re-ACK of the last in-order packet if the round held only
// out-of-order ones.
type window struct {
	dacapo.BaseModule

	rto        time.Duration
	maxRetries int
	size       uint32

	// sender state
	base, next uint32
	buf        map[uint32]*dacapo.Packet
	retries    int
	since      time.Time   // the timeout counts from here: last progress or (re)send
	timer      *time.Timer // posts winTimeout; made on first send, then reset

	// receiver state
	recvNext uint32
	ackDue   bool // the current round received DATA
}

// winTimeout is the event of window's one timer.
type winTimeout struct{}

func newWindow(args dacapo.Args) (dacapo.Module, error) {
	rto, err := args.Duration("rto", 100*time.Millisecond)
	if err != nil {
		return nil, err
	}
	retries, err := args.Int("retries", 20)
	if err != nil {
		return nil, err
	}
	size, err := args.Int("window", 16)
	if err != nil {
		return nil, err
	}
	if size < 1 {
		return nil, fmt.Errorf("modules: window size %d < 1", size)
	}
	return &window{
		rto:        rto,
		maxRetries: retries,
		size:       uint32(size),
		buf:        make(map[uint32]*dacapo.Packet),
	}, nil
}

func (m *window) Name() string { return "window" }

// Blocking marks window for threaded scheduling: it pauses intake when
// the window fills, arms timers, and ACKs down from its up path.
func (m *window) Blocking() {}

func (m *window) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	if m.base == m.next {
		// The timer is made once and reset after that: arming allocates
		// nothing once the window has sent its first packet.
		m.since = time.Now()
		if d := backoff(m.rto, m.retries); m.timer == nil {
			m.timer = time.AfterFunc(d, func() { ctx.Post(winTimeout{}) })
		} else {
			m.timer.Reset(d)
		}
	}
	seq := m.next
	putArqHdr(p.Prepend(arqHdrLen), arqData, seq)
	m.buf[seq] = p.Clone() //coollint:owner kept for retransmission until handleAck or Stop releases it
	m.next++
	if m.next-m.base >= m.size {
		ctx.PauseDown()
	}
	return ctx.EmitDown(p)
}

func (m *window) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	if p.Len() < arqHdrLen {
		ctx.Drop(p)
		return nil
	}
	hdr := p.Bytes()[:arqHdrLen]
	typ, seq := hdr[0], binary.BigEndian.Uint32(hdr[1:])
	if err := p.StripFront(arqHdrLen); err != nil {
		return err
	}
	switch typ {
	case arqAck:
		m.handleAck(ctx, seq)
		ctx.Drop(p)
		return nil
	case arqData:
		m.ackDue = true
		if seq == m.recvNext {
			m.recvNext++
			return ctx.EmitUp(p)
		}
		// Out of order (go-back-N receiver has no buffer): discard; the
		// round's ACK re-acknowledges the last in-order packet so the
		// sender backs up.
		ctx.Drop(p)
		return nil
	default:
		ctx.Drop(p)
		return nil
	}
}

// EndRound sends the round's one ACK, for the last in-order packet.
func (m *window) EndRound(ctx *dacapo.Context) error {
	due := m.ackDue && m.recvNext > 0
	m.ackDue = false
	if !due {
		return nil
	}
	return sendAck(ctx, m.recvNext-1)
}

// handleAck processes a cumulative acknowledgement of every seq <= ack.
func (m *window) handleAck(ctx *dacapo.Context, ack uint32) {
	if ack >= m.next || ack < m.base {
		return // stale or bogus
	}
	for s := m.base; s <= ack; s++ {
		if pkt, ok := m.buf[s]; ok {
			dacapo.PutPacket(pkt)
			delete(m.buf, s)
		}
	}
	m.base = ack + 1
	m.retries = 0
	m.since = time.Now()
	if m.base == m.next {
		m.timer.Stop()
	}
	if m.next-m.base < m.size {
		ctx.ResumeDown()
	}
}

func (m *window) HandleEvent(ctx *dacapo.Context, ev any) error {
	if _, ok := ev.(winTimeout); !ok || m.base == m.next {
		return nil // nothing outstanding: it fired as the last ACK arrived
	}
	if left := backoff(m.rto, m.retries) - time.Since(m.since); left > 0 {
		m.timer.Reset(left) // progress since it was armed
		return nil
	}
	m.retries++
	if m.retries > m.maxRetries {
		return fmt.Errorf("modules: window: packet %d lost after %d retries", m.base, m.maxRetries)
	}
	// Go-back-N: retransmit the whole window.
	for s := m.base; s < m.next; s++ {
		if pkt, ok := m.buf[s]; ok {
			if err := ctx.EmitDown(pkt.Clone()); err != nil {
				return err
			}
		}
	}
	m.since = time.Now()
	m.timer.Reset(backoff(m.rto, m.retries))
	return nil
}

func (m *window) Stop(ctx *dacapo.Context) error {
	if m.timer != nil {
		m.timer.Stop()
	}
	for s, pkt := range m.buf {
		dacapo.PutPacket(pkt)
		delete(m.buf, s)
	}
	return nil
}

// backoff doubles the retransmission timeout per consecutive retry (capped
// at 32x) so a congested path drains instead of being hammered into a
// timeout storm.
func backoff(base time.Duration, retries int) time.Duration {
	shift := retries
	if shift > 5 {
		shift = 5
	}
	return base << uint(shift)
}
