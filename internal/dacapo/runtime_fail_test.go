package dacapo_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
)

// failModule fails in a configurable handler.
type failModule struct {
	dacapo.BaseModule
	failStart bool
	failDown  bool
}

func (m *failModule) Name() string { return "failer" }

func (m *failModule) Start(*dacapo.Context) error {
	if m.failStart {
		return errors.New("start exploded")
	}
	return nil
}

func (m *failModule) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	if m.failDown {
		dacapo.PutPacket(p) // the handler owns p on every return path
		return errors.New("down exploded")
	}
	return ctx.EmitDown(p)
}

func (m *failModule) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	return ctx.EmitUp(p)
}

// eventModule forwards packets and records events. It uses After/Post, so
// it declares Blocking to get threaded scheduling.
type eventModule struct {
	dacapo.BaseModule
	events chan any
}

func (m *eventModule) Name() string { return "eventer" }

func (m *eventModule) Blocking() {}

func (m *eventModule) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	return ctx.EmitDown(p)
}

func (m *eventModule) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	return ctx.EmitUp(p)
}

func (m *eventModule) Start(ctx *dacapo.Context) error {
	ctx.After(time.Millisecond, "tick")
	ctx.Post("posted")
	return nil
}

func (m *eventModule) HandleEvent(ctx *dacapo.Context, ev any) error {
	select {
	case m.events <- ev:
	default:
	}
	return nil
}

func failRegistry(m dacapo.Module) *dacapo.Registry {
	reg := dacapo.NewRegistry()
	reg.Register(m.(interface{ Name() string }).Name(), func(dacapo.Args) (dacapo.Module, error) {
		return m, nil
	})
	return reg
}

func TestModuleStartFailureKillsRuntime(t *testing.T) {
	a, b := pipePair(t)
	defer b.Close()
	reg := failRegistry(&failModule{failStart: true})
	rt, err := dacapo.NewRuntime(dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "failer"}}}, reg, a)
	if err != nil {
		t.Fatal(err)
	}
	// Start hooks run synchronously before any executor is live, so the
	// failure surfaces immediately and poisons the runtime.
	if err := rt.Start(); err == nil || !strings.Contains(err.Error(), "start exploded") {
		t.Fatalf("Start() = %v, want start failure", err)
	}
	if err := rt.Send([]byte("x")); err == nil {
		t.Fatal("Send succeeded on a runtime whose Start failed")
	}
	if err := rt.Err(); err == nil || !strings.Contains(err.Error(), "start exploded") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestModuleHandlerFailureSurfacesInErr(t *testing.T) {
	a, b := pipePair(t)
	defer b.Close()
	reg := failRegistry(&failModule{failDown: true})
	rt, err := dacapo.NewRuntime(dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "failer"}}}, reg, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Send([]byte("boom"))
	deadline := time.After(2 * time.Second)
	for rt.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("handler failure not recorded")
		case <-time.After(time.Millisecond):
		}
	}
	if !strings.Contains(rt.Err().Error(), "down exploded") {
		t.Fatalf("Err() = %v", rt.Err())
	}
}

func TestTimerAndPostedEventsReachModule(t *testing.T) {
	a, b := pipePair(t)
	defer b.Close()
	em := &eventModule{events: make(chan any, 4)}
	reg := failRegistry(em)
	rt, err := dacapo.NewRuntime(dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "eventer"}}}, reg, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got := map[string]bool{}
	deadline := time.After(2 * time.Second)
	for len(got) < 2 {
		select {
		case ev := <-em.events:
			got[ev.(string)] = true
		case <-deadline:
			t.Fatalf("events = %v", got)
		}
	}
	if !got["tick"] || !got["posted"] {
		t.Fatalf("events = %v", got)
	}
}

func TestRuntimeCloseIsIdempotentAndErrNilOnCleanClose(t *testing.T) {
	ra, rb := startPair(t, dummies(2))
	if err := ra.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Recv(); err != nil {
		t.Fatal(err)
	}
	ra.Close()
	ra.Close()
	if err := ra.Err(); err != nil {
		t.Fatalf("clean close recorded error: %v", err)
	}
}

func TestStatsCountDrops(t *testing.T) {
	// parity module drops corrupted frames; inject one raw corrupt frame.
	a, b := pipePair(t)
	reg := modules.NewLibrary()
	spec := dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "parity"}}}
	rt, err := dacapo.NewRuntime(spec, reg, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// The inline receive path is caller-driven: a Recv must be in flight
	// for the corrupt frame to reach the module and be dropped.
	go rt.Recv()
	// Write a frame with a bad parity octet directly.
	if err := a.WriteMessage([]byte{1, 2, 3, 0xEE}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		stats := rt.Stats()
		if stats[0].Drops == 1 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("stats = %+v", stats)
		case <-time.After(time.Millisecond):
		}
	}
}
