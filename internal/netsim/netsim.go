// Package netsim provides a deterministic point-to-point network link model:
// the reproduction's substitute for the paper's two-node ATM/TCP testbed.
//
// A Link is a pair of message endpoints connected by two independent
// simplex paths, each modelling:
//
//   - serialisation delay (bandwidth): a message of n octets occupies the
//     link for n*8/bandwidth seconds, with store-and-forward queueing behind
//     earlier messages (this is what makes stop-and-wait flow control
//     collapse throughput on long links — the effect behind the IRQ curve
//     in the paper's Figure 9);
//   - propagation delay and uniform jitter;
//   - independent random loss (seeded, reproducible);
//   - an MTU that rejects oversized messages, forcing fragmentation into
//     the protocol stack above.
//
// Endpoints implement transport.Channel so a link can stand in anywhere a
// real transport connection is used; like raw ATM/TCP it has no
// setQoSParameter support of its own — QoS is built *on top* of it by
// Da CaPo.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"cool/internal/qos"
	"cool/internal/transport"
)

// Errors returned by link endpoints.
var (
	// ErrMTUExceeded reports a message larger than the link MTU.
	ErrMTUExceeded = errors.New("netsim: message exceeds MTU")
)

// Params configures a Link.
type Params struct {
	// BandwidthKbps is the link rate in kilobits per second; 0 means
	// unlimited (no serialisation delay).
	BandwidthKbps uint32
	// PropDelay is the one-way propagation delay.
	PropDelay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message.
	Jitter time.Duration
	// LossRate is the independent per-message drop probability in [0, 1).
	LossRate float64
	// MTU caps the message size in octets; 0 means unlimited.
	MTU int
	// Seed makes loss and jitter reproducible; 0 selects a fixed default.
	Seed int64
	// QueueLen is the per-direction queue capacity in messages before
	// writers block (a bounded device queue); 0 selects a default of 64.
	QueueLen int
}

// Loopback returns parameters approximating a same-host path: effectively
// unlimited bandwidth, negligible delay, no loss.
func Loopback() Params { return Params{} }

// LAN returns parameters approximating the paper's 155 Mbit/s ATM link with
// a LAN-scale propagation delay.
func LAN() Params {
	return Params{BandwidthKbps: 155_000, PropDelay: 200 * time.Microsecond}
}

// WAN returns parameters approximating a lossy wide-area path, used by the
// reliability experiments.
func WAN() Params {
	return Params{BandwidthKbps: 10_000, PropDelay: 10 * time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.01}
}

// Capability describes the best QoS conceivably deliverable over a link
// with these parameters, used by Da CaPo's resource manager.
func (p Params) Capability() qos.Capability {
	c := qos.Capability{
		qos.Ordering: {Best: 1, Supported: true}, // FIFO per direction
		qos.Priority: {Best: 255, Supported: true},
	}
	bw := p.BandwidthKbps
	if bw == 0 {
		bw = ^uint32(0)
	}
	c[qos.Throughput] = qos.Limit{Best: bw, Supported: true}
	lat := p.PropDelay + p.Jitter
	c[qos.Latency] = qos.Limit{Best: uint32(lat / time.Microsecond), Supported: true}
	c[qos.Jitter] = qos.Limit{Best: uint32(p.Jitter / time.Microsecond), Supported: true}
	// Residual loss per million without retransmission.
	c[qos.Reliability] = qos.Limit{Best: uint32(p.LossRate * 1e6), Supported: true}
	return c
}

// Link is a bidirectional simulated path. Create with NewLink; obtain the
// two endpoints with Endpoints.
type Link struct {
	a, b *Endpoint
}

// NewLink builds a link with the given parameters applied to both
// directions.
func NewLink(p Params) *Link {
	if p.QueueLen <= 0 {
		p.QueueLen = 64
	}
	seed := p.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	ab := newPath(p, seed)
	ba := newPath(p, seed+1)
	l := &Link{
		a: &Endpoint{name: "a", out: ab, in: ba},
		b: &Endpoint{name: "b", out: ba, in: ab},
	}
	return l
}

// Endpoints returns the two ends of the link.
func (l *Link) Endpoints() (a, b *Endpoint) { return l.a, l.b }

// Close shuts down both directions.
func (l *Link) Close() {
	l.a.Close()
	l.b.Close()
}

// path is one simplex direction: a queue drained by a delivery goroutine
// that imposes serialisation, propagation, jitter and loss.
type path struct {
	p     Params
	queue chan []byte
	out   chan []byte
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	mu  sync.Mutex
	rng *rand.Rand
	// stats
	sent, delivered, dropped uint64
}

func newPath(p Params, seed int64) *path {
	pa := &path{
		p:     p,
		queue: make(chan []byte, p.QueueLen),
		out:   make(chan []byte, p.QueueLen),
		done:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
	pa.wg.Add(1)
	go pa.deliver()
	return pa
}

func (pa *path) close() {
	pa.once.Do(func() { close(pa.done) })
	pa.wg.Wait()
}

// inflight is one message scheduled for delivery.
type inflight struct {
	msg  []byte
	at   time.Time
	lost bool
}

// deliver drains the queue, modelling a store-and-forward device with
// pipelined serialisation. A virtual clock (linkFree) tracks when the link
// finishes transmitting earlier messages; each message is scheduled for
// delivery at linkFree + propagation + jitter and an event loop releases
// due messages in batches. When the loop runs behind schedule it sleeps
// not at all, so sustained throughput converges to the configured
// bandwidth instead of being capped by timer granularity; only idle
// protocols (e.g. stop-and-wait) pay timer latency, which is exactly their
// real cost.
func (pa *path) deliver() {
	defer pa.wg.Done()
	var (
		pending  []inflight
		linkFree time.Time
		lastAt   time.Time
	)
	schedule := func(msg []byte) {
		now := time.Now()
		if linkFree.Before(now) {
			linkFree = now
		}
		if pa.p.BandwidthKbps > 0 {
			wire := time.Duration(float64(len(msg)*8) / float64(pa.p.BandwidthKbps) * float64(time.Millisecond))
			linkFree = linkFree.Add(wire)
		}
		delay := pa.p.PropDelay
		pa.mu.Lock()
		if pa.p.Jitter > 0 {
			delay += time.Duration(pa.rng.Int63n(int64(pa.p.Jitter)))
		}
		lost := pa.p.LossRate > 0 && pa.rng.Float64() < pa.p.LossRate
		pa.mu.Unlock()
		at := linkFree.Add(delay)
		if at.Before(lastAt) {
			at = lastAt // jitter must not reorder a FIFO link
		}
		lastAt = at
		pending = append(pending, inflight{msg: msg, at: at, lost: lost})
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Block for work only when nothing is scheduled.
		if len(pending) == 0 {
			select {
			case msg := <-pa.queue:
				schedule(msg)
			case <-pa.done:
				return
			}
		}
		// Opportunistically drain the device queue.
		for {
			select {
			case msg := <-pa.queue:
				schedule(msg)
				continue
			default:
			}
			break
		}
		// Release everything that is due.
		now := time.Now()
		for len(pending) > 0 && !pending[0].at.After(now) {
			f := pending[0]
			pending = pending[1:]
			pa.mu.Lock()
			if f.lost {
				pa.dropped++
				pa.mu.Unlock()
				continue
			}
			pa.mu.Unlock()
			select {
			case pa.out <- f.msg:
				pa.mu.Lock()
				pa.delivered++
				pa.mu.Unlock()
			case <-pa.done:
				return
			}
		}
		if len(pending) == 0 {
			continue
		}
		// Wait for the next due time or new arrivals.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(pending[0].at))
		select {
		case <-timer.C:
		case msg := <-pa.queue:
			schedule(msg)
		case <-pa.done:
			return
		}
	}
}

func (pa *path) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-pa.done:
		return false
	}
}

// Stats reports per-direction counters.
type Stats struct {
	Sent, Delivered, Dropped uint64
}

func (pa *path) stats() Stats {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return Stats{Sent: pa.sent, Delivered: pa.delivered, Dropped: pa.dropped}
}

// Endpoint is one end of a Link. It implements transport.Channel.
type Endpoint struct {
	name string
	out  *path
	in   *path
}

var _ transport.Channel = (*Endpoint)(nil)

// WriteMessage queues a message onto the outbound path. It blocks when the
// device queue is full (backpressure) and fails for messages over the MTU.
func (e *Endpoint) WriteMessage(p []byte) error {
	if e.out.p.MTU > 0 && len(p) > e.out.p.MTU {
		return fmt.Errorf("%w: %d > %d", ErrMTUExceeded, len(p), e.out.p.MTU)
	}
	select {
	case <-e.out.done:
		return transport.ErrClosed
	default:
	}
	msg := make([]byte, len(p))
	copy(msg, p)
	select {
	case e.out.queue <- msg:
		e.out.mu.Lock()
		e.out.sent++
		e.out.mu.Unlock()
		return nil
	case <-e.out.done:
		return transport.ErrClosed
	}
}

// WriteMessages queues the frames one by one; the simulated device sends
// one message per transmission.
func (e *Endpoint) WriteMessages(frames [][]byte) error {
	for _, p := range frames {
		if err := e.WriteMessage(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadMessage returns the next delivered message, or io.EOF once the link
// is closed and drained.
func (e *Endpoint) ReadMessage() ([]byte, error) {
	select {
	case msg := <-e.in.out:
		return msg, nil
	case <-e.in.done:
		select {
		case msg := <-e.in.out:
			return msg, nil
		default:
			return nil, io.EOF
		}
	}
}

// Buffered is false: every round ends after one message. No measured
// workload runs a round-gathering reader over the simulated link.
func (e *Endpoint) Buffered() bool { return false }

// SetQoSParameter refuses non-empty sets: the raw link has no QoS machinery;
// Da CaPo provides it above.
func (e *Endpoint) SetQoSParameter(params qos.Set) (qos.Set, error) {
	return transport.NoQoS(params)
}

// Close tears down both directions of the link.
func (e *Endpoint) Close() error {
	e.out.close()
	e.in.close()
	return nil
}

// LocalAddr identifies the endpoint.
func (e *Endpoint) LocalAddr() string { return "netsim:" + e.name }

// RemoteAddr identifies the peer.
func (e *Endpoint) RemoteAddr() string {
	if e.name == "a" {
		return "netsim:b"
	}
	return "netsim:a"
}

// OutStats returns counters for the outbound direction.
func (e *Endpoint) OutStats() Stats { return e.out.stats() }

// InStats returns counters for the inbound direction.
func (e *Endpoint) InStats() Stats { return e.in.stats() }
