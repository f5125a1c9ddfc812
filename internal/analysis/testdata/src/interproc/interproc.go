// Package interproc is a coollint test fixture for the interprocedural
// summaries: acquire, release and queue-handoff effects must flow through
// un-annotated helpers so poolpair sees across call boundaries.
package interproc

import (
	"cool/internal/bufpool"
	"cool/internal/cdr"
)

// fresh is an acquire helper with no //coollint:acquires annotation: the
// summary must infer that it returns an owned encoder.
func fresh() *cdr.Encoder {
	return cdr.AcquireEncoder(false)
}

// finish is a release helper with no //coollint:releases annotation: the
// summary must infer that it frees its encoder parameter.
func finish(e *cdr.Encoder) {
	cdr.ReleaseEncoder(e)
}

// --- poolpair through helpers ---

func leakFromHelper(bad bool) *cdr.Encoder {
	e := fresh() // want "result of fresh is not released on every path"
	e.WriteULong(1)
	if bad {
		return nil
	}
	return e
}

func releaseViaHelper() {
	e := fresh()
	e.WriteULong(2)
	finish(e)
}

func doubleReleaseViaHelper() {
	e := fresh()
	finish(e)
	cdr.ReleaseEncoder(e) // want "released again"
}

// --- queue handoff through helpers ---

type sendQueue struct {
	q [][]byte
}

// enqueue element-appends its parameter into a field queue and has no
// release call anywhere in its body: the summary must still infer that
// it takes ownership of the buffer (queue handoff), so callers count
// the call as the release.
func (s *sendQueue) enqueue(b []byte) {
	s.q = append(s.q, b)
}

func handoffViaHelper(s *sendQueue) {
	b := bufpool.Get(32)
	b = append(b, 9)
	s.enqueue(b) // ownership moved to the queue: no release due
}

func releaseAfterHandoff(s *sendQueue) {
	b := bufpool.Get(32)
	s.enqueue(b)
	bufpool.Put(b) // want "released again"
}

func useAfterHandoff(s *sendQueue) byte {
	b := bufpool.Get(32)
	s.enqueue(b)
	return b[0] // want "used after"
}
