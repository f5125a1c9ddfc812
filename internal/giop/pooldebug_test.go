//go:build pooldebug

package giop

import (
	"strings"
	"testing"

	"cool/internal/bufpool"
)

// TestLeakedMessageIsReported deliberately keeps a pooled message and
// asserts the shared ledger's leak report points at the acquisition.
func TestLeakedMessageIsReported(t *testing.T) {
	bufpool.DebugReset()
	m := AcquireMessage()
	leaks := bufpool.Leaks()
	if len(leaks) != 1 {
		t.Fatalf("Leaks() = %d entries, want 1", len(leaks))
	}
	if !strings.Contains(leaks[0], "leaked *giop.Message") || !strings.Contains(leaks[0], "AcquireMessage") {
		t.Fatalf("leak report does not point at AcquireMessage:\n%s", leaks[0])
	}
	m.frame = nil
	ReleaseMessage(m)
	if rest := bufpool.Leaks(); len(rest) != 0 {
		t.Fatalf("leaks remain after ReleaseMessage:\n%s", strings.Join(rest, "\n"))
	}
}

// TestDoubleReleaseMessagePanics pins the double-release detection that
// the production pooled flag silently forgives.
func TestDoubleReleaseMessagePanics(t *testing.T) {
	bufpool.DebugReset()
	m := AcquireMessage()
	ReleaseMessage(m)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second ReleaseMessage did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double Put of *giop.Message") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !strings.Contains(msg, "first release:") || !strings.Contains(msg, "second release:") {
			t.Fatalf("panic lacks the competing stacks:\n%s", msg)
		}
	}()
	ReleaseMessage(m)
}

// TestDoubleReleaseUnpooledMessagePanics: a plain Unmarshal message joins
// the pool on its first release, so the ledger catches a second one too.
func TestDoubleReleaseUnpooledMessagePanics(t *testing.T) {
	bufpool.DebugReset()
	frame, err := MarshalCancelRequest(V1_0, false, 78)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrame(frame) // a plain Unmarshal leaves the frame with its caller
	m, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseMessage(m)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("second ReleaseMessage of an unpooled message did not panic")
		}
	}()
	ReleaseMessage(m)
}

// TestPooledRoundTripStaysBalanced decodes and releases through the
// pooled path and asserts the shared ledger stays balanced.
func TestPooledRoundTripStaysBalanced(t *testing.T) {
	bufpool.DebugReset()
	frame, err := MarshalCancelRequest(V1_0, false, 77)
	if err != nil {
		t.Fatal(err)
	}
	m, err := UnmarshalPooled(frame)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseMessage(m)
	if leaks := bufpool.Leaks(); len(leaks) != 0 {
		t.Fatalf("pooled round trip leaked:\n%s", strings.Join(leaks, "\n"))
	}
}
