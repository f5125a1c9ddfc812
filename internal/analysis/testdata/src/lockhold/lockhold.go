// Package lockhold is a coollint test fixture: blocking operations under
// held mutexes the lockhold analyzer must flag or accept.
package lockhold

import "sync"

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	wg sync.WaitGroup
	v  int
}

// --- violations ---

func sendWhileLocked(b *box) {
	b.mu.Lock()
	b.ch <- 1 // want "channel send may block while b.mu is held"
	b.mu.Unlock()
}

func receiveWhileRLocked(b *box) int {
	b.rw.RLock()
	v := <-b.ch // want "channel receive may block"
	b.rw.RUnlock()
	return v
}

func selectWhileLocked(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want "select without default may block"
	case v := <-b.ch:
		b.v = v
	case b.ch <- 2:
	}
}

func waitWhileLocked(b *box) {
	b.mu.Lock()
	b.wg.Wait() // want "Wait may block"
	b.mu.Unlock()
}

func blockAfterDeferredUnlock(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 3 // want "channel send may block"
}

// blockingHelper is not annotated: the caller learns it can block from
// its interprocedural summary.
func blockingHelper(b *box) int {
	return <-b.ch
}

func callsBlockingHelperUnderLock(b *box) int {
	b.mu.Lock()
	v := blockingHelper(b) // want "call to blockingHelper may block .* while b.mu is held"
	b.mu.Unlock()
	return v
}

// --- range loops: the loop head covers the ranged expression and the
// per-iteration receive, never the body ---

func sendAfterRangeWithEarlyUnlock(b *box, xs []int) {
	b.mu.Lock()
	for _, v := range xs {
		if v == 0 {
			b.mu.Unlock()
			return
		}
	}
	b.ch <- 1 // want "channel send may block while b.mu is held"
	b.mu.Unlock()
}

func sendAfterCountedLoopWithEarlyUnlock(b *box, xs []int) {
	b.mu.Lock()
	for i := 0; i < len(xs); i++ {
		if xs[i] == 0 {
			b.mu.Unlock()
			return
		}
	}
	b.ch <- 1 // want "channel send may block while b.mu is held"
	b.mu.Unlock()
}

func rangeOverChannelWhileLocked(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := range b.ch { // want "range over channel may block while b.mu is held"
		b.v += v
	}
}

// --- //coollint:allow scopes ---

func allowTrailing(b *box) {
	b.mu.Lock()
	b.ch <- 4 //coollint:allow lockhold -- a trailing allow silences its own line
	b.mu.Unlock()
}

func allowWholeLine(b *box) {
	b.mu.Lock()
	//coollint:allow lockhold -- a whole-line allow silences the line below
	b.ch <- 5
	b.mu.Unlock()
}

func allowOtherAnalyzer(b *box) {
	b.mu.Lock()
	b.ch <- 6 //coollint:allow lockorder -- names another analyzer // want "channel send may block"
	b.mu.Unlock()
}

// --- clean shapes ---

func sendAfterUnlock(b *box) {
	b.mu.Lock()
	b.v++
	b.mu.Unlock()
	b.ch <- 1
}

func pollWhileLocked(b *box) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case v := <-b.ch:
		return v, true
	default:
		return 0, false
	}
}

func sendWithoutLock(b *box) {
	b.ch <- 1
}

func lockInBranchUnlockedBeforeSend(b *box, cond bool) {
	if cond {
		b.mu.Lock()
		b.v++
		b.mu.Unlock()
	}
	b.ch <- 1
}

func sendInRangeBodyBetweenUnlockAndLock(b *box, xs []int) {
	b.mu.Lock()
	for _, v := range xs {
		b.mu.Unlock()
		b.ch <- v
		b.mu.Lock()
	}
	b.mu.Unlock()
}

func closureHasOwnScope(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// The goroutine body runs outside the lock scope of this function.
	go func() {
		b.ch <- 9
	}()
}
