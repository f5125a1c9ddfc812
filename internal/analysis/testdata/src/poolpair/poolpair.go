// Package poolpair is a coollint test fixture: acquire/release shapes the
// poolpair analyzer must flag or accept. Diagnostics are asserted with
// want-comments on the offending line.
package poolpair

import (
	"errors"

	"cool/internal/bufpool"
	"cool/internal/cdr"
	"cool/internal/giop"
)

type holder struct {
	raw []byte
	enc *cdr.Encoder
	req *request
}

// request is a typed pool object: bufpool.Pool[T] Get/Put are acquire and
// release entry points like bufpool.Get/Put.
type request struct {
	id   uint32
	body []byte
}

var reqPool = bufpool.NewPool(func(r *request) { *r = request{} })

var errBadID = errors.New("bad id")

// --- violations ---

func leakOnErrorPath(bad bool) []byte {
	e := cdr.AcquireEncoder(false) // want "not released on every path"
	e.WriteULong(7)
	if bad {
		return nil // leaks e
	}
	return e.Detach()
}

func doubleRelease() {
	b := bufpool.Get(64)
	bufpool.Put(b)
	bufpool.Put(b) // want "released again"
}

func useAfterRelease() byte {
	b := bufpool.Get(64)
	b = b[:1]
	bufpool.Put(b)
	return b[0] // want "used after"
}

func discardedResult() {
	bufpool.Get(128) // want "discarded"
}

func fieldStoreWithoutOwner(h *holder) {
	h.enc = cdr.AcquireEncoder(true) // want "without //coollint:owner"
}

func storeTrackedIntoField(h *holder) {
	b := bufpool.Get(32) // acquired here...
	h.raw = b            // want "stored into h.raw without //coollint:owner"
}

//coollint:acquires
func makeScratch() []byte { return bufpool.Get(256) }

func annotatedAcquireLeak(bad bool) {
	s := makeScratch() // want "not released on every path"
	if bad {
		return
	}
	bufpool.Put(s)
}

func messageLeakDespiteGuard(frame []byte) error {
	m, err := giop.UnmarshalPooled(frame) // want "not released on every path"
	if err != nil {
		return err
	}
	if m.Header.Type == giop.MsgCloseConnection {
		return nil // leaks m
	}
	giop.ReleaseMessage(m)
	return nil
}

func requestLeakOnErrorPath(id uint32) error {
	r := reqPool.Get() // want "result of reqPool.Get is not released on every path"
	r.id = id
	if id == 0 {
		return errBadID // leaks r
	}
	reqPool.Put(r)
	return nil
}

func requestDoublePut() {
	r := reqPool.Get()
	reqPool.Put(r)
	reqPool.Put(r) // want "released again"
}

func requestUseAfterPut() uint32 {
	r := reqPool.Get()
	reqPool.Put(r)
	return r.id // want "used after"
}

func requestStoredIntoField(h *holder) {
	r := reqPool.Get()
	h.req = r // want "stored into h.req without //coollint:owner"
}

// A call to an analyzed helper that neither releases nor queues the
// object only lends it: the caller still owes the release.
func encoderLentThenLeaked() int {
	e := cdr.AcquireEncoder(false) // want "not released on every path"
	writeID(e, 7)
	return e.Len()
}

func bufferLentThenLeaked(frame []byte) byte {
	b := bufpool.Get(len(frame)) // want "not released on every path"
	b = append(b, frame...)
	return checksum(b)
}

func writeID(e *cdr.Encoder, id uint32) { e.WriteULong(id) }

func checksum(b []byte) (sum byte) {
	for _, c := range b {
		sum ^= c
	}
	return sum
}

// --- clean shapes ---

func releaseOnAllPaths(bad bool) []byte {
	e := cdr.AcquireEncoder(false)
	e.WriteULong(7)
	if bad {
		cdr.ReleaseEncoder(e)
		return nil
	}
	return e.Detach()
}

func deferredRelease() {
	b := bufpool.Get(64)
	defer bufpool.Put(b)
	b = append(b, 1)
}

func deferredClosureRelease() {
	e := cdr.AcquireEncoder(true)
	defer func() { cdr.ReleaseEncoder(e) }()
	e.WriteULong(1)
}

func errorCorrelated(frame []byte) error {
	m, err := giop.UnmarshalPooled(frame)
	if err != nil {
		return err // callee reclaimed m: nothing to release
	}
	giop.ReleaseMessage(m)
	return nil
}

func ownershipReturned() []byte {
	b := bufpool.Get(512)
	return b // caller owns it now
}

func ownerAnnotatedStore(h *holder) {
	h.raw = bufpool.Get(64) //coollint:owner the holder adopts the buffer
}

// A callee without a summary (a func value, an interface method, code
// outside the module) takes the object.
func ownershipPassedOn(frame []byte, consume func([]byte)) {
	b := bufpool.Get(len(frame))
	copy(b, frame)
	consume(b)
}

func lentThenReleased() {
	e := cdr.AcquireEncoder(false)
	writeID(e, 9)
	cdr.ReleaseEncoder(e)
}

func requestReleased(id uint32) error {
	r := reqPool.Get()
	defer reqPool.Put(r)
	if id == 0 {
		return errBadID
	}
	r.id = id
	return nil
}

//coollint:releases
func recycleScratch(b []byte) { bufpool.Put(b) }

func annotatedReleaseHelper() {
	s := makeScratch()
	recycleScratch(s)
}

func loopAcquireRelease(n int) {
	for i := 0; i < n; i++ {
		b := bufpool.Get(64)
		b = append(b, byte(i))
		bufpool.Put(b)
	}
}

// --- queue handoff (the flush-writer idiom) ---

type flushQueue struct {
	frames [][]byte
}

type replyBatch struct {
	msgs []*giop.Message
}

// Element-append into a field queue stores the buffer itself: a
// recognized ownership transfer to the queue's drainer, like a channel
// send — no //coollint:owner needed on the acquisition.
func enqueueHandoff(w *flushQueue, n int) {
	b := bufpool.Get(n)
	b = append(b, 1)
	w.frames = append(w.frames, b)
}

// Messages queue the same way: the batch drainer releases them.
func enqueueMessage(rb *replyBatch, frame []byte) error {
	m, err := giop.UnmarshalPooled(frame)
	if err != nil {
		return err
	}
	rb.msgs = append(rb.msgs, m)
	return nil
}

// The loop variable is rebound on every turn, on one branch to an
// object acquired here and on the other to one wrapped around a borrowed
// frame (dacapo's SendBatch): each binding is its own acquisition, and
// the queue takes both.
func sendBatch(q *requestQueue, frames [][]byte, copyFrames bool) {
	for _, f := range frames {
		var r *request
		if copyFrames {
			r = copiedRequest(f)
		} else {
			r = borrowedRequest(f)
		}
		q.push(r)
	}
}

type requestQueue struct {
	out []*request
}

func (q *requestQueue) push(r *request) { q.out = append(q.out, r) }

func copiedRequest(f []byte) *request {
	r := reqPool.Get()
	r.body = append(r.body, f...)
	return r
}

func borrowedRequest(f []byte) *request {
	r := reqPool.Get()
	r.body = f
	return r
}

// Spread-append only copies the bytes out: the source buffer stays
// owned and the missing release is still a leak.
func contentAppendStillOwned(dst []byte) []byte {
	b := bufpool.Get(16) // want "not released on every path"
	b = append(b, 2)
	dst = append(dst, b...)
	return dst
}

func contentAppendReleased(dst []byte) []byte {
	b := bufpool.Get(16)
	b = append(b, 3)
	dst = append(dst, b...)
	bufpool.Put(b)
	return dst
}
