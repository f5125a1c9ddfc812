//go:build pooldebug

package dacapo

import (
	"strings"
	"testing"

	"cool/internal/bufpool"
	"cool/internal/transport"
)

// TestPacketLeakIsReported: an unreleased pooled packet shows up in the
// pooldebug leak ledger pointing at its acquisition, and disappears once
// released.
func TestPacketLeakIsReported(t *testing.T) {
	bufpool.DebugReset()

	p := GetPacket([]byte("held hostage"))

	leaks := bufpool.Leaks()
	if len(leaks) == 0 {
		t.Fatal("pooldebug reported no leaks despite an unreleased packet")
	}
	joined := strings.Join(leaks, "\n")
	if !strings.Contains(joined, "leaked buffer") || !strings.Contains(joined, "GetPacketSized") {
		t.Fatalf("leak report does not point at the packet acquisition:\n%s", joined)
	}

	PutPacket(p)
	if rest := bufpool.Leaks(); len(rest) != 0 {
		t.Fatalf("leaks remain after PutPacket:\n%s", strings.Join(rest, "\n"))
	}
}

// TestPacketDoubleReleaseIsDoubleFree: the packet's backing buffer belongs
// to the arena after PutPacket; a second release of the same storage trips
// the verifier.
func TestPacketDoubleReleaseIsDoubleFree(t *testing.T) {
	bufpool.DebugReset()
	p := GetPacketSized(8)
	buf := p.buf
	PutPacket(p)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("second release of the packet buffer did not panic")
		}
	}()
	bufpool.Put(buf)
}

// TestHeaderMovesKeepLedgerBase: Prepend/StripFront move only the payload
// window, never the buffer base, so the release after a full header
// round-trip still matches the ledger entry.
func TestHeaderMovesKeepLedgerBase(t *testing.T) {
	bufpool.DebugReset()
	p := GetPacket([]byte("payload"))
	hdr := p.Prepend(16)
	for i := range hdr {
		hdr[i] = byte(i)
	}
	if err := p.StripFront(16); err != nil {
		t.Fatal(err)
	}
	PutPacket(p)
	if rest := bufpool.Leaks(); len(rest) != 0 {
		t.Fatalf("ledger mismatch after header round-trip:\n%s", strings.Join(rest, "\n"))
	}
}

// flipModule inverts every payload octet in place (WritableBytes, so a
// borrowed send buffer migrates into the arena first).
type flipModule struct{ BaseModule }

func (m *flipModule) Name() string { return "flip" }

func (m *flipModule) HandleDown(ctx *Context, p *Packet) error {
	data := p.WritableBytes()
	for i := range data {
		data[i] ^= 0xFF
	}
	return ctx.EmitDown(p)
}

func (m *flipModule) HandleUp(ctx *Context, p *Packet) error {
	data := p.WritableBytes()
	for i := range data {
		data[i] ^= 0xFF
	}
	return ctx.EmitUp(p)
}

// tagModule prepends and strips a one-octet marker.
type tagModule struct{ BaseModule }

func (m *tagModule) Name() string { return "tag" }

func (m *tagModule) HandleDown(ctx *Context, p *Packet) error {
	p.Prepend(1)[0] = 0x7A
	return ctx.EmitDown(p)
}

func (m *tagModule) HandleUp(ctx *Context, p *Packet) error {
	if p.Len() < 1 || p.Bytes()[0] != 0x7A {
		ctx.Drop(p)
		return nil
	}
	if err := p.StripFront(1); err != nil {
		return err
	}
	return ctx.EmitUp(p)
}

// TestSpliceLeaksNothing runs traffic through an inline pair, splices in a
// new module generation mid-stream, and closes both ends: the arena ledger
// must come back empty — retired generations, scratch, control frames and
// boundary state all accounted for.
func TestSpliceLeaksNothing(t *testing.T) {
	bufpool.DebugReset()

	mgr := transport.NewInprocManager()
	l, err := mgr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acc := make(chan transport.Channel, 1)
	go func() {
		ch, err := l.Accept()
		if err == nil {
			acc <- ch
		}
	}()
	a, err := mgr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b := <-acc

	reg := NewRegistry()
	reg.Register("flip", func(Args) (Module, error) { return &flipModule{}, nil })
	reg.Register("tag", func(Args) (Module, error) { return &tagModule{}, nil })
	specA := Spec{Modules: []ModuleSpec{{Name: "flip"}, {Name: "tag"}}}
	specB := Spec{Modules: []ModuleSpec{{Name: "tag"}}}
	ra, err := NewRuntime(specA, reg, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRuntime(specA, reg, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rb.Start(); err != nil {
		t.Fatal(err)
	}

	roundTrip := func(payload string) {
		t.Helper()
		if err := ra.Send([]byte(payload)); err != nil {
			t.Fatal(err)
		}
		got, err := rb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != payload {
			t.Fatalf("got %q, want %q", got, payload)
		}
		transport.PutBuffer(got)
	}

	roundTrip("before the splice")

	done := make(chan error, 1)
	go func() {
		_, err := ra.Reconfigure(specB, nil)
		done <- err
	}()
	// Drive the responder until the splice lands there, and until Close
	// ends it: a message it holds between Recv and PutBuffer is live.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			msg, err := rb.Recv()
			if err != nil {
				return
			}
			transport.PutBuffer(msg)
		}
	}()
	if err := <-done; err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}

	if err := ra.Send([]byte("after the splice")); err != nil {
		t.Fatal(err)
	}

	ra.Close()
	rb.Close()
	a.Close()
	b.Close()
	<-drained

	if leaks := bufpool.Leaks(); len(leaks) != 0 {
		t.Fatalf("arena leaks after splice + close:\n%s", strings.Join(leaks, "\n"))
	}
}

// TestDoublePutPacketPanics: a second PutPacket of the same packet hands
// its header back to the header pool twice, so two later acquisitions
// would share it; the ledger panics naming the type and both releases.
func TestDoublePutPacketPanics(t *testing.T) {
	bufpool.DebugReset()
	p := GetPacketSized(8)
	PutPacket(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second PutPacket did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double Put of *dacapo.Packet") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !strings.Contains(msg, "first release:") || !strings.Contains(msg, "second release:") {
			t.Fatalf("panic lacks the competing stacks:\n%s", msg)
		}
	}()
	PutPacket(p)
}
