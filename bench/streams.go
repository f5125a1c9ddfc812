package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/transport"
)

// The stream workloads: a raw dacapo.Runtime pair over the in-process
// transport, one sender flooding sequence-numbered messages, one receiver
// verifying them. Back-pressure from the stack paces the sender, so this
// is a closed loop with a window, not an open one.
//
// A sender and a receiver of equal speed leave the queue between them at
// any depth, so one-way delay in a flood says how deep the queue happened
// to be, not how the stack performs. What a stream's consumer sees is how
// evenly data arrives: the latency of these workloads is the time the
// receiver waits for each further block of verified messages. The inline
// stack hands over one message at a time, so its block is one 16 KiB
// message. The window stack delivers in bursts (batches, acknowledgements),
// which makes the gap between single 1 KiB messages bimodal; its block is
// 256 messages, long enough to span several bursts and to keep the
// harness's clock reads off the per-packet path being measured.
//
// Message layout: octets 0-7 the sequence number (top bit: last message),
// 8-15 the send time where a traced slice stamped one (0 otherwise), the
// rest the seeded payload.
const (
	streamHeader = 16
	finBit       = uint64(1) << 63
)

type streamInst struct {
	spec     dacapo.Spec
	threaded bool // whether the spec is meant to need the threaded executor
	a, b     *dacapo.Runtime
	listener transport.Listener
	payload  []byte
	block    uint64 // messages per block
	next     uint64 // next sequence number to send
	expect   uint64 // next sequence number to receive
	// Each side's goroutine stamps its own spans.
	sendSpans, recvSpans *spanSink
}

// runtimePair builds two started runtimes for spec at the two ends of one
// in-process connection.
func runtimePair(spec dacapo.Spec) (a, b *dacapo.Runtime, l transport.Listener, err error) {
	inner := transport.NewInprocManager()
	l, err = inner.Listen("")
	if err != nil {
		return nil, nil, nil, err
	}
	ca, err := inner.Dial(l.Addr())
	if err != nil {
		l.Close()
		return nil, nil, nil, err
	}
	cb, err := l.Accept()
	if err != nil {
		ca.Close()
		l.Close()
		return nil, nil, nil, err
	}
	lib := modules.NewLibrary()
	if a, err = dacapo.NewRuntime(spec, lib, ca); err == nil {
		if b, err = dacapo.NewRuntime(spec, lib, cb); err == nil {
			if err = a.Start(); err == nil {
				err = b.Start()
			}
		}
	}
	if err != nil {
		if a != nil {
			a.Close()
		}
		if b != nil {
			b.Close()
		}
		ca.Close()
		cb.Close()
		l.Close()
		return nil, nil, nil, err
	}
	return a, b, l, nil
}

func specOf(names ...string) dacapo.Spec {
	var s dacapo.Spec
	for _, n := range names {
		m := dacapo.ModuleSpec{Name: n}
		if n == "window" {
			m.Args = dacapo.Args{"window": "16"} // what dacapo.Configure selects
		}
		s.Modules = append(s.Modules, m)
	}
	return s
}

func startStream(spec dacapo.Spec, threaded bool, size, block int) func(*config) (instance, error) {
	return func(cfg *config) (instance, error) {
		a, b, l, err := runtimePair(spec)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(cfg.seed)))
		s := &streamInst{spec: spec, threaded: threaded, a: a, b: b, listener: l,
			payload:   seededPayload(rng, size),
			block:     uint64(block),
			sendSpans: newSpanSink(cfg.trace), recvSpans: newSpanSink(cfg.trace)}
		// The first verified delivery ends the cold set-up.
		if err := s.send(false, false); err != nil {
			s.close()
			return nil, err
		}
		if _, _, err := s.receive(); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
}

// send transmits the next message; a stamped message carries its send time
// and leaves a stream_send span.
func (s *streamInst) send(stamp, fin bool) error {
	seq := s.next
	s.next++
	if fin {
		seq |= finBit
	}
	binary.BigEndian.PutUint64(s.payload, seq)
	var t0 int64
	if stamp {
		t0 = now()
	}
	binary.BigEndian.PutUint64(s.payload[8:], uint64(t0))
	err := s.a.Send(s.payload)
	if stamp {
		s.sendSpans.add("stream_send", t0, now(), "", seq)
	}
	return err
}

// verify checks a received message: strict sequence (loss, duplicate and
// reorder all break it) and payload equality (corruption). It returns the
// send stamp the message carried and whether it is the last one.
func (s *streamInst) verify(msg []byte) (sent int64, fin bool, err error) {
	if len(msg) != len(s.payload) {
		return 0, false, fmt.Errorf("message of %d octets, want %d", len(msg), len(s.payload))
	}
	seq := binary.BigEndian.Uint64(msg)
	fin = seq&finBit != 0
	seq &^= finBit
	want := s.expect
	s.expect = seq + 1
	if seq != want {
		return 0, fin, fmt.Errorf("sequence %d, want %d", seq, want)
	}
	if !bytes.Equal(msg[streamHeader:], s.payload[streamHeader:]) {
		return 0, fin, fmt.Errorf("message %d corrupted", seq)
	}
	return int64(binary.BigEndian.Uint64(msg[8:])), fin, nil
}

// receive takes one message off the stack and verifies it.
func (s *streamInst) receive() (sent int64, fin bool, err error) {
	msg, err := s.b.Recv()
	if err != nil {
		return 0, true, err
	}
	sent, fin, err = s.verify(msg)
	transport.PutBuffer(msg)
	return sent, fin, err
}

// drive floods until stop. Recorder 0 belongs to the receiver, which
// checkpoints at every block: how long the block took to arrive and how
// many of its messages verified. Recorder 1 takes the sender's failures.
func (s *streamInst) drive(r *run) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := r.recs[0]
		since, last := 0, now()
		for {
			msg, err := s.b.Recv()
			if err != nil {
				rec.fail("receive after %d messages: %v", s.expect, err)
				return
			}
			sent, fin, err := s.verify(msg)
			transport.PutBuffer(msg)
			if err != nil {
				rec.fail("%v", err)
			} else {
				since++
			}
			if s.expect%s.block == 0 || fin {
				t := now()
				rec.add(t, t-last, since)
				since, last = 0, t
			}
			if sent != 0 {
				s.recvSpans.add("stream_deliver", sent, now(), "", s.expect-1)
			}
			if fin {
				return
			}
		}
	}()
	var err error
	for i := 0; err == nil && !r.stop.Load(); i++ {
		err = s.send(uint64(i)%s.block == 0 && tracing.Load(), false)
	}
	if err == nil {
		err = s.send(false, true)
	}
	if err != nil {
		r.recs[1].fail("send %d: %v", s.next-1, err)
		s.a.Close() // the last message will not arrive: unblock the receiver
		s.b.Close()
	}
	wg.Wait()
}

func (s *streamInst) finish(lr layerReport) error {
	_, threaded := s.a.Segments()
	lr["dacapo.segments_threaded"] = float64(threaded)
	if !s.threaded && threaded != 0 {
		return fmt.Errorf("%d threaded segments in %v, want a fully inline stack", threaded, s.spec)
	}
	if s.threaded && threaded == 0 {
		return fmt.Errorf("no threaded segment in %v: the threaded executor was not exercised", s.spec)
	}
	return nil
}

func (s *streamInst) spans() []span {
	return append(append([]span(nil), s.sendSpans.spans()...), s.recvSpans.spans()...)
}

func (s *streamInst) close() error {
	s.a.Close()
	s.b.Close()
	return s.listener.Close()
}
