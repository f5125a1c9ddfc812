//go:build pooldebug

package bufpool

import (
	"strings"
	"testing"
)

func TestDoublePutPanics(t *testing.T) {
	DebugReset()
	b := Get(600)
	Put(b)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Put did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double Put") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !strings.Contains(msg, "first release:") || !strings.Contains(msg, "second release:") {
			t.Fatalf("panic lacks the competing stacks:\n%s", msg)
		}
	}()
	Put(b)
}

func TestReleasePoisonsBuffer(t *testing.T) {
	DebugReset()
	b := Get(600)
	b = append(b, 1, 2, 3)
	alias := b[:3]
	Put(b)
	for i, c := range alias {
		if c != poisonByte {
			t.Fatalf("alias[%d] = %#x after Put, want poison %#x", i, c, poisonByte)
		}
	}
	// Drain the poisoned buffer so later tests get it through Get (which
	// re-registers it as live) rather than tripping over stale state.
	_ = Get(600)
}

func TestLeakReportNamesAcquisition(t *testing.T) {
	DebugReset()
	leaked := Get(600)
	_ = leaked
	leaks := Leaks()
	if len(leaks) != 1 {
		t.Fatalf("Leaks() = %d entries, want 1:\n%s", len(leaks), strings.Join(leaks, "\n"))
	}
	if !strings.Contains(leaks[0], "leaked buffer") || !strings.Contains(leaks[0], "bufpool.Get") {
		t.Fatalf("leak report does not name the acquisition:\n%s", leaks[0])
	}
	Put(leaked)
	if rest := Leaks(); len(rest) != 0 {
		t.Fatalf("Leaks() after release = %d entries, want 0", len(rest))
	}
}

func TestDoublePutObjectPanics(t *testing.T) {
	DebugReset()
	p := NewPool(func(x *pooled) { *x = pooled{} })
	x := p.Get()
	p.Put(x)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Put did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double Put of *bufpool.pooled") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !strings.Contains(msg, "first release:") || !strings.Contains(msg, "second release:") {
			t.Fatalf("panic lacks the competing stacks:\n%s", msg)
		}
	}()
	p.Put(x)
}

func TestLeakReportNamesObjectAcquisition(t *testing.T) {
	DebugReset()
	p := NewPool(func(x *pooled) { *x = pooled{} })
	x := p.Get()
	leaks := Leaks()
	if len(leaks) != 1 {
		t.Fatalf("Leaks() = %d entries, want 1:\n%s", len(leaks), strings.Join(leaks, "\n"))
	}
	if !strings.Contains(leaks[0], "leaked *bufpool.pooled") || !strings.Contains(leaks[0], "TestLeakReportNamesObjectAcquisition") {
		t.Fatalf("leak report does not name the type and the Get stack:\n%s", leaks[0])
	}
	p.Put(x)
	if rest := Leaks(); len(rest) != 0 {
		t.Fatalf("Leaks() after Put = %d entries, want 0", len(rest))
	}
}

func TestDebugResetClearsObjects(t *testing.T) {
	DebugReset()
	p := NewPool(func(x *pooled) { *x = pooled{} })
	live := p.Get()
	freed := p.Get()
	p.Put(freed)
	DebugReset()
	if leaks := Leaks(); len(leaks) != 0 {
		t.Fatalf("Leaks() after DebugReset = %d entries, want 0", len(leaks))
	}
	p.Put(live)
	p.Put(freed) // forgotten by the reset: no longer a double Put
}
