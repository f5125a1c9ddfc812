//go:build pooldebug

package orb

import (
	"strings"
	"testing"

	"cool/internal/bufpool"
)

// TestDoublePutInvocationPanics: a recycled Invocation handed back a
// second time would reach two servants at once; the ledger panics naming
// the type and both releases.
func TestDoublePutInvocationPanics(t *testing.T) {
	bufpool.DebugReset()
	inv := invPool.Get()
	invPool.Put(inv)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second invPool.Put did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double Put of *orb.Invocation") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !strings.Contains(msg, "first release:") || !strings.Contains(msg, "second release:") {
			t.Fatalf("panic lacks the competing stacks:\n%s", msg)
		}
	}()
	invPool.Put(inv)
}
