// Package leakcheck asserts that tests leave no goroutines behind. ORB
// Shutdown must reap every read loop, listener accept loop, and Da CaPo
// worker it started; a goroutine that outlives Shutdown holds pooled
// buffers and connection state alive and eventually corrupts reuse.
//
// Usage: call Check(t) before starting ORBs (and before registering the
// Cleanup that shuts them down — cleanups run last-in-first-out, so the
// leak assertion then runs after Shutdown has finished).
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long the post-test assertion waits for goroutines that are
// mid-teardown (a read loop observing a closed channel, a netsim queue
// draining) to exit before declaring them leaked. Generous because the
// full suite runs itself a second time under -tags pooldebug, and that
// child process competes for the same cores. A variable so the package's
// own failure-path test does not have to wait it out.
var grace = 15 * time.Second

// Check records the goroutines running now and registers a cleanup that
// fails the test if a goroutine started since is still running once all
// other cleanups (including ORB Shutdown) have run. Goroutine ids are never
// reused, so a goroutine of an earlier test that is still exiting can
// neither hide a leak nor be reported as one.
func Check(t testing.TB) {
	t.Helper()
	_, before := stacks()
	t.Cleanup(func() {
		deadline := time.Now().Add(grace)
		for {
			var leaked []string
			self, now := stacks()
			for id, stack := range now {
				if _, ok := before[id]; !ok && id != self {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("leakcheck: %d goroutines still running after shutdown that were not running at test start\n%s",
					len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// stacks returns the stack of every goroutine keyed by goroutine id, and
// the id of the caller's.
func stacks() (self uint64, all map[uint64]string) {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	blocks := strings.Split(string(buf), "\n\n")
	all = make(map[uint64]string, len(blocks))
	for i, b := range blocks {
		var id uint64
		if _, err := fmt.Sscanf(b, "goroutine %d ", &id); err != nil {
			continue
		}
		if i == 0 { // runtime.Stack puts the caller first
			self = id
		}
		all[id] = b
	}
	return self, all
}
