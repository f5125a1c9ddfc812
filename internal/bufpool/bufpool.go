// Package bufpool owns every pool in the ORB. Get and Put are the shared
// frame arena: a size-classed sync.Pool of byte buffers used for GIOP
// frames on both the encode path (cdr/giop marshal into pooled buffers)
// and the receive path (transport ReadMessage fills pooled buffers).
// Pool[T] recycles typed objects — GIOP messages and headers, CDR
// encoders, invocations, Da CaPo packet headers and batches — through the
// same ledger, so the pooldebug build checks buffers and objects alike.
//
// Ownership contract: Get hands the caller exclusive ownership of a
// zero-length buffer with at least the requested capacity (or of a reset
// object). Put returns it; the caller must not touch it (or any slice
// aliasing it) afterwards. Putting a buffer or object that did not come
// from Get is allowed — it simply joins the pool — so callers can recycle
// unconditionally.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Size classes are powers of two from minClass to maxClass. Buffers larger
// than maxClass are not pooled: one giant frame must not pin megabytes.
const (
	minClass = 512
	maxClass = 1 << 20
	nClasses = 12 // 512 << 11 == 1 MiB
)

// pools[i] stores *buf headers whose capacity is at least minClass<<i.
// spare recycles the headers themselves so Put never allocates.
var (
	pools [nClasses]sync.Pool
	spare = sync.Pool{New: func() any { return new(buf) }}
)

type buf struct{ b []byte }

// classFor returns the smallest class whose buffers satisfy capacity n,
// or -1 if n exceeds the poolable range.
func classFor(n int) int {
	if n <= minClass {
		return 0
	}
	if n > maxClass {
		return -1
	}
	return bits.Len(uint(n-1)) - 9 // ceil(log2(n)) - log2(minClass)
}

// classOf returns the largest class whose minimum capacity fits within cap
// n, or -1 if n is below the smallest class.
func classOf(n int) int {
	if n < minClass {
		return -1
	}
	c := bits.Len(uint(n)) - 10 // floor(log2(n)) - log2(minClass)
	if c >= nClasses {
		c = nClasses - 1
	}
	return c
}

// Get returns a zero-length buffer with capacity at least n. The buffer is
// exclusively owned by the caller until handed back via Put.
//
//coollint:allocator arena entry point; pool-miss makes are the arena filling itself
func Get(n int) []byte {
	if c := classFor(n); c >= 0 {
		if h, _ := pools[c].Get().(*buf); h != nil {
			b := h.b
			h.b = nil
			spare.Put(h)
			trackGet(unsafe.Pointer(unsafe.SliceData(b)), b)
			return b[:0]
		}
		b := make([]byte, 0, minClass<<c)
		trackGet(unsafe.Pointer(unsafe.SliceData(b)), b)
		return b
	}
	return make([]byte, 0, n)
}

// Put returns b's storage to the arena. b may have come from Get or from
// anywhere else; nil and tiny or oversized buffers are simply dropped. The
// caller must not retain any alias of b after Put.
//
//coollint:allocator arena return point
func Put(b []byte) {
	c := classOf(cap(b))
	if c < 0 || cap(b) > maxClass {
		return
	}
	b = b[:0:cap(b)]
	trackPut(unsafe.Pointer(unsafe.SliceData(b)), b)
	h := spare.Get().(*buf)
	h.b = b
	pools[c].Put(h)
}

// Pool is a typed object pool on the shared ledger. reset runs on every
// Put, so Get always returns a scrubbed object and the scrub code lives in
// one place per type.
type Pool[T any] struct {
	p     sync.Pool
	reset func(*T)
}

// NewPool returns a Pool whose Put scrubs objects with reset.
func NewPool[T any](reset func(*T)) *Pool[T] {
	return &Pool[T]{p: sync.Pool{New: func() any { return new(T) }}, reset: reset}
}

// Get returns an object exclusively owned by the caller until Put.
func (p *Pool[T]) Get() *T {
	x := p.p.Get().(*T)
	trackGet(unsafe.Pointer(x), x)
	return x
}

// Put resets x and returns it to the pool; the caller must not touch x
// afterwards.
func (p *Pool[T]) Put(x *T) {
	trackPut(unsafe.Pointer(x), x)
	p.reset(x)
	p.p.Put(x)
}
