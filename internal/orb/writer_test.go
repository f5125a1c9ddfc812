package orb

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cool/internal/bufpool"
	"cool/internal/qos"
	"cool/internal/transport"
)

// stubChannel is a transport.Channel that records every batch handed to
// WriteMessages and can block mid-write behind a gate so tests can race
// teardown against an in-flight flush deterministically.
type stubChannel struct {
	mu      sync.Mutex
	batches []int // size of each WriteMessages call
	frames  int   // total frames transmitted
	gate    chan struct{} // when non-nil, WriteMessages blocks until closed
	inWrite chan struct{} // signalled once a write has started blocking
	err     error         // returned by every write once set
}

func (s *stubChannel) WriteMessages(frames [][]byte) error {
	s.mu.Lock()
	gate := s.gate
	s.gate = nil
	err := s.err
	s.batches = append(s.batches, len(frames))
	s.frames += len(frames)
	s.mu.Unlock()
	if gate != nil {
		if s.inWrite != nil {
			close(s.inWrite)
		}
		<-gate
	}
	return err
}

func (s *stubChannel) WriteMessage(p []byte) error { return s.WriteMessages([][]byte{p}) }
func (s *stubChannel) ReadMessage() ([]byte, error) {
	select {} // tests never read
}
func (s *stubChannel) SetQoSParameter(qos.Set) (qos.Set, error) { return nil, nil }
func (s *stubChannel) Close() error                             { return nil }
func (s *stubChannel) LocalAddr() string                        { return "stub" }
func (s *stubChannel) RemoteAddr() string                       { return "stub" }

func (s *stubChannel) totals() (batches, frames int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches), s.frames
}

func poolFrame(n int) []byte {
	f := transport.GetBuffer(n)
	return f[:n]
}

// TestFrameWriterCoalescesDuringBlockedWrite pins the combiner contract:
// frames enqueued while a batch is on the wire ride the combiner's next
// drain as one vectored write, not one write each.
func TestFrameWriterCoalescesDuringBlockedWrite(t *testing.T) {
	gate := make(chan struct{})
	ch := &stubChannel{gate: gate, inWrite: make(chan struct{})}
	w := newFrameWriter(ch, nil, nil, nil)

	first := make(chan error, 1)
	go func() { first <- w.send(poolFrame(8)) }()
	<-ch.inWrite // the combiner is now blocked inside WriteMessages

	// These ride the queue; send returns immediately for each.
	for i := 0; i < 5; i++ {
		if err := w.send(poolFrame(8)); err != nil {
			t.Fatalf("queued send: %v", err)
		}
	}
	close(gate) // release the first write; the combiner drains the rest
	if err := <-first; err != nil {
		t.Fatalf("combiner send: %v", err)
	}
	if !w.waitIdle(5 * time.Second) {
		t.Fatal("writer did not go idle")
	}
	batches, frames := ch.totals()
	if frames != 6 {
		t.Fatalf("transmitted %d frames, want 6", frames)
	}
	if batches != 2 {
		t.Fatalf("used %d writes for 6 frames, want 2 (1 + coalesced 5)", batches)
	}
}

// TestFrameWriterGatherYield exercises the few-core gather point: with the
// load hint reporting peers in flight, the claiming sender yields once so
// runnable peers join its batch. The assertion is conservative (all frames
// arrive, in fewer writes than frames) because scheduling decides the
// exact batch split.
func TestFrameWriterGatherYield(t *testing.T) {
	const senders = 16
	var inflight atomic.Int32
	inflight.Store(senders)
	ch := &stubChannel{}
	w := newFrameWriter(ch, nil, func() int { return int(inflight.Load()) }, nil)

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.send(poolFrame(16)); err != nil {
				t.Errorf("send: %v", err)
			}
		}()
	}
	wg.Wait()
	if !w.waitIdle(5 * time.Second) {
		t.Fatal("writer did not go idle")
	}
	_, frames := ch.totals()
	if frames != senders {
		t.Fatalf("transmitted %d frames, want %d", frames, senders)
	}

	// A lone sender (hint = 1) must not yield or block.
	inflight.Store(1)
	if err := w.send(poolFrame(16)); err != nil {
		t.Fatalf("lone send: %v", err)
	}
}

// TestFrameWriterTeardownMidFlushLeaksNothing races fail() against an
// in-flight batch under pooldebug accounting: the poisoned combiner must
// recycle everything queued behind the blocked write, and late senders get
// their frame recycled with the sticky error. Run with -tags pooldebug
// -race for full verification; without the tag it still exercises the
// races.
func TestFrameWriterTeardownMidFlushLeaksNothing(t *testing.T) {
	bufpool.DebugReset()
	boom := errors.New("boom")
	gate := make(chan struct{})
	ch := &stubChannel{gate: gate, inWrite: make(chan struct{})}
	w := newFrameWriter(ch, nil, nil, nil)

	first := make(chan error, 1)
	go func() { first <- w.send(poolFrame(32)) }()
	<-ch.inWrite

	// Queue frames behind the blocked write, then poison the writer while
	// the batch is still on the wire.
	var late sync.WaitGroup
	for i := 0; i < 8; i++ {
		late.Add(1)
		go func() {
			defer late.Done()
			w.send(poolFrame(32)) // error or nil: the frame is consumed either way
		}()
	}
	waitUntil(t, "frames queued", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.q) == 8
	})
	w.fail(boom)
	close(gate)
	<-first
	late.Wait()
	if !w.waitIdle(5 * time.Second) {
		t.Fatal("writer did not go idle")
	}
	if err := w.send(poolFrame(32)); !errors.Is(err, boom) {
		t.Fatalf("send after fail = %v, want %v", err, boom)
	}
	if leaks := bufpool.Leaks(); len(leaks) > 0 {
		t.Fatalf("leaked %d frames:\n%s", len(leaks), leaks[0])
	}
}

// TestFrameWriterWriteErrorPoisonsAndDrops pins the failure path: the first
// write error fires onErr exactly once, queued frames are dropped, and
// later sends observe the sticky error.
func TestFrameWriterWriteErrorPoisonsAndDrops(t *testing.T) {
	bufpool.DebugReset()
	boom := errors.New("wire torn")
	ch := &stubChannel{err: boom}
	var fired atomic.Int32
	w := newFrameWriter(ch, nil, nil, func(error) { fired.Add(1) })

	if err := w.send(poolFrame(8)); !errors.Is(err, boom) {
		t.Fatalf("send = %v, want %v", err, boom)
	}
	if err := w.send(poolFrame(8)); !errors.Is(err, boom) {
		t.Fatalf("second send = %v, want sticky %v", err, boom)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("onErr fired %d times, want 1", got)
	}
	if leaks := bufpool.Leaks(); len(leaks) > 0 {
		t.Fatalf("leaked %d frames:\n%s", len(leaks), leaks[0])
	}
}
