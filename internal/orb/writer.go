package orb

import (
	"runtime"
	"sync"
	"time"

	"cool/internal/obs"
	"cool/internal/transport"
)

// frameWriter coalesces one connection's outbound frames into vectored
// writes using a combiner scheme: there is no dedicated flusher goroutine.
// The first sender to find the writer idle becomes the flusher and keeps
// draining the queue — including frames other senders enqueued while it
// held the transport — until the queue is empty. A lone caller therefore
// pays exactly one write per frame (no batching delay is ever added),
// while N concurrent callers collapse their frames into a few
// Channel.WriteMessages calls (one writev each on tcp).
//
// Ownership: send takes ownership of the frame unconditionally (enqueueing
// is the handoff — see DESIGN §9). Frames are recycled to the shared arena
// after the transport write, or on whatever error path drops them, so a
// caller must not touch a frame after handing it to send.
type frameWriter struct {
	ch    transport.Channel
	sizeH *obs.Histogram // flush batch sizes; may be nil
	onErr func(error)    // fired once, after the first flush failure
	load  func() int     // callers-in-flight hint; nil disables the gather yield

	mu      sync.Mutex
	q       [][]byte // frames awaiting the next flush
	spare   [][]byte // second queue array, swapped in while a batch drains
	writing bool     // a combiner currently owns the transport
	err     error    // sticky: set by the failing flush or by fail()
	fired   bool     // onErr already delivered
	idle    chan struct{} // non-nil while waitIdle is parked; closed on idle
}

func newFrameWriter(ch transport.Channel, sizeH *obs.Histogram, load func() int, onErr func(error)) *frameWriter {
	return &frameWriter{ch: ch, sizeH: sizeH, load: load, onErr: onErr}
}

// send enqueues one frame for transmission, taking ownership of it. When no
// flush is in progress the calling goroutine becomes the combiner and
// drains the queue before returning; otherwise the frame rides along with
// the active combiner's next batch and send returns immediately (a later
// write failure then surfaces through onErr, not through this return).
func (w *frameWriter) send(frame []byte) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		transport.PutBuffer(frame)
		return err
	}
	w.q = append(w.q, frame)
	if w.writing {
		w.mu.Unlock()
		return nil
	}
	w.writing = true
	if w.load != nil && w.load() > 1 {
		// Gather point. Writev only coalesces frames that are queued when
		// the combiner drains, and a fast non-blocking write never yields
		// the processor — on few cores every batch would be size one. With
		// peers in flight (the hint counts this caller too, so a lone
		// caller skips this and keeps its zero-delay write), step off the
		// processor once: runnable peers enqueue into this batch and their
		// frames share one vectored write.
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
	}
	return w.flush()
}

// flush is the combiner loop: repeatedly swap out the queued batch, write
// it, recycle the frames, and go idle once the queue stays empty. Entered
// holding w.mu with w.writing set and the caller's frame queued; returns
// unlocked. It reports the fate of the caller's frame, which rides in the
// first batch: once that batch is written, a later failure belongs to the
// frames of later batches and surfaces through onErr or the teardown that
// poisoned the writer.
//
//coollint:hotpath combiner drain; every outbound frame crosses it
func (w *frameWriter) flush() error {
	for written := false; ; written = true {
		if w.err != nil {
			// fail() poisoned the writer while a batch was in flight; the
			// combiner owns the drop of anything queued since.
			err := w.err
			drop := w.q
			w.q = nil
			w.goIdleLocked()
			w.mu.Unlock()
			releaseFrames(drop)
			if written {
				return nil
			}
			return err
		}
		if len(w.q) == 0 {
			w.goIdleLocked()
			w.mu.Unlock()
			return nil
		}
		batch := w.q
		if w.spare != nil {
			w.q = w.spare[:0]
			w.spare = nil
		} else {
			w.q = nil
		}
		w.mu.Unlock()

		if w.sizeH != nil {
			w.sizeH.Observe(uint64(len(batch)))
		}
		// The transport only borrows the frames; recycling also clears the
		// entries so the retained queue array cannot pin recycled buffers.
		err := w.ch.WriteMessages(batch)
		releaseFrames(batch)

		w.mu.Lock()
		w.spare = batch[:0]
		if err != nil {
			if w.err == nil {
				w.err = err
			}
			drop := w.q
			w.q = nil
			w.goIdleLocked()
			fire := !w.fired
			w.fired = true
			w.mu.Unlock()
			releaseFrames(drop)
			if fire && w.onErr != nil {
				w.onErr(err)
			}
			if written {
				return nil
			}
			return err
		}
	}
}

// fail poisons the writer: subsequent sends return err with their frame
// recycled, and queued frames are dropped. When a combiner is mid-flush it
// observes the poison on its next loop and performs the drop itself (the
// in-flight batch is never touched — the transport is still using it).
// Idempotent; the first error sticks. fail never invokes onErr (its
// callers are the teardown paths onErr would call into).
func (w *frameWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	if w.writing {
		w.mu.Unlock()
		return
	}
	drop := w.q
	w.q = nil
	w.goIdleLocked()
	w.mu.Unlock()
	releaseFrames(drop)
}

// goIdleLocked marks the writer idle and wakes waitIdle. Caller holds w.mu.
func (w *frameWriter) goIdleLocked() {
	w.writing = false
	if w.idle != nil {
		close(w.idle)
		w.idle = nil
	}
}

// waitIdle blocks until no flush is in progress and the queue is empty (or
// the writer failed), bounded by timeout. Shutdown uses it so "request
// completed" (reply enqueued) extends to "reply bytes handed to the
// transport" before the connection is closed.
func (w *frameWriter) waitIdle(timeout time.Duration) bool {
	w.mu.Lock()
	if !w.writing && len(w.q) == 0 {
		w.mu.Unlock()
		return true
	}
	if w.idle == nil {
		w.idle = make(chan struct{})
	}
	ch := w.idle
	w.mu.Unlock()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
		return false
	}
}

// releaseFrames recycles every non-nil frame and clears the entries.
func releaseFrames(frames [][]byte) {
	for i, f := range frames {
		if f != nil {
			transport.PutBuffer(f)
		}
		frames[i] = nil
	}
}
