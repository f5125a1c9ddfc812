package orb

import (
	"sync/atomic"
	"testing"
	"time"
)

// reentrantChannel is a transport stub that holds its own lock for
// the full duration of every write and re-enters the writer from inside
// the first write: acquisition order transport-lock → writer-lock, the
// inverse of a combiner that (wrongly) kept w.mu across the transport
// call. Together with a second goroutine sending plain frames while the
// gated write is in flight, this is the ABBA deadlock shape the
// lockorder analyzer hunts; the production writer survives it only
// because flush releases w.mu before touching the transport. (A send
// caller must never hold transport-internal locks itself: send may
// inline the combiner drain and re-enter the transport.)
type reentrantChannel struct {
	stubChannel
	w       *frameWriter
	reenter atomic.Bool // armed: the next write re-enqueues one frame
}

func (c *reentrantChannel) WriteMessages(frames [][]byte) error {
	if c.reenter.CompareAndSwap(true, false) {
		// The combiner goroutine owns the transport here; handing the
		// writer a frame takes w.mu. If w.mu were still held by the
		// in-flight flush this would self-deadlock on the spot.
		if err := c.w.send(poolFrame(8)); err != nil {
			return err
		}
	}
	return c.stubChannel.WriteMessages(frames)
}

func (c *reentrantChannel) WriteMessage(p []byte) error {
	return c.WriteMessages([][]byte{p})
}

// TestFrameWriterNoLockOrderDeadlock is the deadlock-shaped regression
// for the combiner writer. Goroutine A becomes the combiner and parks
// inside a gated transport write (transport side held); goroutine B
// meanwhile enqueues frames and polls waitIdle, both of which need w.mu.
// With the combiner protocol intact B finishes while A is still parked;
// if flush held w.mu across the transport write, B would block until the
// gate — which only opens after B finishes — and the watchdog turns the
// cycle into a failure. The transport also re-enters the writer from inside
// the write, exercising the inverted order on the combiner's own stack.
// Runs under -race and, via the pooldebug suite re-run, with the pool
// verifier compiled in.
func TestFrameWriterNoLockOrderDeadlock(t *testing.T) {
	gate := make(chan struct{})
	ch := &reentrantChannel{}
	ch.gate = gate
	ch.inWrite = make(chan struct{})
	w := newFrameWriter(ch, nil, nil, nil)
	ch.w = w
	ch.reenter.Store(true)

	first := make(chan error, 1)
	go func() { first <- w.send(poolFrame(8)) }() // goroutine A: combiner
	<-ch.inWrite // A is parked inside WriteMessages, transport side held

	// Goroutine B: the writer lock must be free while the write is on the
	// wire. Every send returns immediately (the frames ride A's next
	// drain) and waitIdle times out rather than wedging.
	const queued = 32
	bDone := make(chan error, 1)
	go func() {
		for i := 0; i < queued; i++ {
			if err := w.send(poolFrame(8)); err != nil {
				bDone <- err
				return
			}
		}
		if w.waitIdle(10 * time.Millisecond) {
			bDone <- errTestIdleEarly
			return
		}
		bDone <- nil
	}()

	watchdog := time.NewTimer(30 * time.Second)
	defer watchdog.Stop()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("concurrent sender: %v", err)
		}
	case <-watchdog.C:
		close(gate) // unwedge the combiner before failing
		t.Fatal("deadlock: sends blocked while a batch was on the wire — w.mu held across the transport write")
	}

	close(gate) // release A; its drain loop picks up B's frames
	if err := <-first; err != nil {
		t.Fatalf("combiner send: %v", err)
	}
	if !w.waitIdle(10 * time.Second) {
		t.Fatal("writer did not go idle after the gated drain")
	}
	_, frames := ch.totals()
	if want := 1 + queued + 1; frames != want { // A's + B's + the re-entered one
		t.Fatalf("transmitted %d frames, want %d", frames, want)
	}
}

// errTestIdleEarly flags waitIdle returning true while a write is parked.
var errTestIdleEarly = errorString("waitIdle reported idle during an in-flight write")

type errorString string

func (e errorString) Error() string { return string(e) }
