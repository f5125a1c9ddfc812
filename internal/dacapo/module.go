package dacapo

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Direction of a packet through the stack.
type Direction int

// Packet directions.
const (
	// Down moves from the application (A) toward the transport (T):
	// modules add their protocol headers.
	Down Direction = iota + 1
	// Up moves from the transport toward the application: modules parse
	// and strip their headers.
	Up
)

func (d Direction) String() string {
	if d == Down {
		return "down"
	}
	return "up"
}

// Module is one protocol mechanism in a module graph: the unified module
// interface that "allows free and unconstrained combination of modules to
// protocols" (§5.1).
//
// Handlers receive packets and either forward them (ctx.EmitDown/EmitUp),
// absorb them (ACKs, duplicates), or emit additional ones (retransmissions,
// fragments).
//
// Execution contract. By default a module is scheduled *inline*: its
// HandleDown runs run-to-completion on the down-direction executor (the
// sender, or the pump of the nearest blocking module above) and its
// HandleUp on the up-direction executor (the receiver, or the pump of the
// nearest blocking module below). Per direction, handlers never run
// concurrently — but HandleDown and HandleUp of the *same* inline module
// may, so inline modules must keep their down-state and up-state in
// disjoint fields, must not block, and must not use PauseDown/After/Post
// (the runtime panics if they do). An inline module must also never
// EmitDown from its up path. Down-direction packets may wrap borrowed
// caller memory and must never be retained past handler return — in-place
// payload transforms go through Packet.WritableBytes/SetPayload, which
// migrate borrowed memory before writing;
// up-direction packets are pool-owned and may be retained (reassembly)
// as long as Stop releases whatever is still held.
//
// A module that needs any of those — flow-control pauses, timers, posted
// events, down-emission from the up path (ACKs) — declares it by
// implementing Blocker. Blocking modules keep the classic threaded
// scheduling: a dedicated pump goroutine owns both directions plus events,
// so their handlers never run concurrently at all and need no internal
// locking. The runtime splits the module graph into inline segments at
// blocking-module boundaries; packet batches flow across the boundaries.
type Module interface {
	// Name returns the mechanism name this instance was built from.
	Name() string
	// Start runs before any packet is handled (synchronously during
	// Runtime.Start, before any executor is live).
	Start(ctx *Context) error
	// HandleDown processes a packet moving toward the transport.
	HandleDown(ctx *Context, p *Packet) error
	// HandleUp processes a packet moving toward the application.
	HandleUp(ctx *Context, p *Packet) error
	// HandleEvent processes a timer or control event posted via
	// ctx.After or ctx.Post (blocking modules only).
	HandleEvent(ctx *Context, ev any) error
	// Stop runs during shutdown, after all executors have quiesced.
	Stop(ctx *Context) error
}

// Blocker marks a Module that needs threaded scheduling: it pauses intake
// (PauseDown), arms timers (After), posts events (Post), or emits
// down-direction packets from its up path. The runtime gives each such
// module a pump goroutine of its own and splits the surrounding graph
// into inline segments at its boundaries.
type Blocker interface {
	Module
	// Blocking is a marker; implementations do nothing.
	Blocking()
}

// RoundEnder is optionally implemented by a Blocker. A pump works in
// rounds: it runs a batch and the batches already queued behind it (or
// its spilled packets, or one event), then flushes what they emitted.
// EndRound runs once per round, before that flush, so a module can emit
// one packet for the whole round: window sends one cumulative ACK instead
// of one per data packet.
type RoundEnder interface {
	EndRound(ctx *Context) error
}

// BaseModule provides no-op implementations of the optional Module methods;
// embed it to implement only what a mechanism needs.
type BaseModule struct{}

// Start implements Module.
func (BaseModule) Start(*Context) error { return nil }

// HandleEvent implements Module.
func (BaseModule) HandleEvent(*Context, any) error { return nil }

// Stop implements Module.
func (BaseModule) Stop(*Context) error { return nil }

// ErrStopped is returned by Context emit functions once the runtime is
// shutting down.
var ErrStopped = errors.New("dacapo: runtime stopped")

// Context is a module's interface to the runtime: its position in the
// graph, the continuation to the neighbour modules, and (for blocking
// modules) its timer facility.
type Context struct {
	rt  *Runtime
	idx int
	// stages is the generation of the module graph this context belongs
	// to; a mid-stream reconfiguration splices in a new generation with
	// fresh contexts, so packets in flight finish on the graph they
	// entered.
	stages []*stage
	// threaded reports pump scheduling (Blocker modules).
	threaded bool
	// downEx/upEx are the executors that run this module's handlers in
	// each direction; emissions gather into the executor's batch buffers.
	downEx, upEx *executor

	// downPaused suspends intake of packets from the module above; it is
	// read and written only on the module's pump goroutine.
	downPaused bool

	// batchHist, when instrumented, observes the packets of each round of
	// this module's pump.
	batchHist batchObserver

	// stats are written by the executing goroutine and snapshotted by
	// Runtime.Stats from other goroutines, hence the atomics.
	downPkts, downBytes atomic.Uint64
	upPkts, upBytes     atomic.Uint64
	drops               atomic.Uint64
}

// PauseDown stops the runtime from delivering further down-direction
// packets to this module until ResumeDown. Used by flow-control modules
// whose send window is full. Must be called from a handler of a blocking
// module.
func (c *Context) PauseDown() {
	c.mustBlock("PauseDown")
	c.downPaused = true
}

// ResumeDown re-enables down-direction intake. Must be called from a
// handler.
func (c *Context) ResumeDown() { c.downPaused = false }

func (c *Context) mustBlock(op string) {
	if !c.threaded {
		panic("dacapo: inline module " + c.rt.moduleName(c) + " called Context." + op +
			"; declare Blocking() to get threaded scheduling")
	}
}

// EmitDown hands a packet to the next module toward the transport (or to
// the transport itself from the lowest module). It blocks for backpressure
// and fails with ErrStopped during shutdown.
func (c *Context) EmitDown(p *Packet) error {
	c.downPkts.Add(1)
	c.downBytes.Add(uint64(p.Len()))
	return c.rt.downFrom(c.stages, c.idx+1, p, c.downEx)
}

// EmitUp hands a packet to the next module toward the application (or to
// the application's receive queue from the topmost module).
func (c *Context) EmitUp(p *Packet) error {
	c.upPkts.Add(1)
	c.upBytes.Add(uint64(p.Len()))
	return c.rt.upFrom(c.stages, c.idx-1, p, c.upEx)
}

// Drop records an absorbed packet (failed checksum, duplicate, ACK).
func (c *Context) Drop(p *Packet) {
	c.drops.Add(1)
	PutPacket(p)
}

// After schedules ev for delivery to this module's HandleEvent after d.
// The returned stop function cancels the timer (best effort). Blocking
// modules only.
func (c *Context) After(d time.Duration, ev any) (stop func()) {
	c.mustBlock("After")
	t := time.AfterFunc(d, func() { c.rt.postEvent(c, ev) })
	return func() { t.Stop() }
}

// Post delivers ev to this module's HandleEvent asynchronously. Blocking
// modules only.
func (c *Context) Post(ev any) {
	c.mustBlock("Post")
	c.rt.postEvent(c, ev)
}

// Factory builds a module instance from its spec arguments.
type Factory func(args Args) (Module, error)

// Args carries the string key/value arguments of a ModuleSpec.
type Args map[string]string

// Int returns the integer argument for key, or def when absent.
func (a Args) Int(key string, def int) (int, error) {
	s, ok := a[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("dacapo: argument %q: %w", key, err)
	}
	return v, nil
}

// Duration returns the duration argument for key, or def when absent.
func (a Args) Duration(key string, def time.Duration) (time.Duration, error) {
	s, ok := a[key]
	if !ok {
		return def, nil
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("dacapo: argument %q: %w", key, err)
	}
	return v, nil
}

// Registry maps mechanism names to factories — the module library the
// configuration manager draws from.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a mechanism; it panics on duplicates, which indicate a
// programming error during library assembly.
func (r *Registry) Register(name string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic("dacapo: duplicate module mechanism " + name)
	}
	r.factories[name] = f
}

// Build instantiates a mechanism by name.
func (r *Registry) Build(name string, args Args) (Module, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dacapo: unknown module mechanism %q", name)
	}
	return f(args)
}

// Has reports whether a mechanism is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.factories[name]
	return ok
}

// Names lists registered mechanisms, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
