package dacapo

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/bufpool"
	"cool/internal/qos"
	"cool/internal/transport"
)

// queueDepth is the capacity (in batches) of each segment-boundary queue.
// Bounded queues give backpressure from the transport up to the
// application.
const queueDepth = 64

// stage is one module's slot in a generation of the module graph.
type stage struct {
	mod      Module
	ctx      *Context
	blocking bool
	started  bool

	// Pump wiring, blocking stages only. Queues carry pooled batches so a
	// burst crosses the segment boundary in one hand-off.
	downQ  chan *[]*Packet
	upQ    chan *[]*Packet
	events chan any
	ex     *executor
}

// executor describes one goroutine (or lock-holder) that runs a contiguous
// inline segment of the graph: the sender (under sendMu), the receiver
// (under readMu, or the reader goroutine in threaded mode), or a blocking
// module's pump. While an executor processes a batch it gathers its
// emissions — boundary hand-offs and wire frames — and flushes them as
// batches when the run completes. All fields are owned by the executing
// goroutine.
type executor struct {
	gather bool

	// wire gathers frames bound for the transport (downSink == nil).
	wire []*Packet
	// outDown gathers packets bound for the next blocking stage below.
	outDown  []*Packet
	downSink *stage
	// outUp gathers packets bound for the next blocking stage above.
	outUp  []*Packet
	upSink *stage
	// outRecv gathers packets bound for the application (upSink == nil,
	// threaded mode).
	outRecv []*Packet
}

// batchPool recycles the boundary batch slices. The reset drops the
// packet pointers so a pooled batch never pins released headers.
var batchPool = bufpool.NewPool(func(bp *[]*Packet) {
	clear(*bp)
	*bp = (*bp)[:0]
})

// Runtime executes a module graph between an application endpoint (Send /
// Recv) and a transport channel: the Da CaPo runtime environment of
// Figure 5. The graph is split into run-to-completion inline segments at
// blocking-module boundaries. A fully inline graph runs with zero
// internal goroutines: Send executes the whole down chain on the caller,
// Recv reads the transport and executes the whole up chain on the caller.
// Each blocking module gets a pump goroutine owning both its directions
// plus its events; a transport reader goroutine feeds the bottom segment.
type Runtime struct {
	reg *Registry
	tch transport.Channel

	threaded bool  // at least one blocking module
	pumps    []int // indices of blocking stages

	// down and up are the stage lists seen by each direction. They are
	// the same slice until a mid-stream reconfiguration splices in a new
	// generation direction by direction (down under sendMu, up under
	// readMu).
	sendMu sync.Mutex
	readMu sync.Mutex
	down   []*stage
	up     []*stage
	downGen, upGen uint32

	sendEx *executor
	readEx *executor

	// scratch holds packets delivered to the application by the inline up
	// chain, pending pickup by the Recv caller (readMu).
	scratch     []*Packet
	scratchHead int

	// wireFrames is the vectored-write scratch of the unique wire
	// executor.
	wireFrames [][]byte

	recvQ chan *Packet // threaded mode application delivery
	ctrlQ chan []byte  // threaded mode: reader hands control replies to the wire-owning pump

	stop      chan struct{}
	stopOnce  sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup
	started   atomic.Bool
	firstErr  atomic.Pointer[error]

	statsLock   sync.Mutex
	spec        Spec
	statsStages []*stage
	retired     []ModuleStats

	// Mid-stream reconfiguration state (reconfig.go).
	rcMu        sync.Mutex
	rcPolicy    AcceptPolicy
	rcGen       uint32
	rcInit      *reconfigState
	rcResp      *reconfigState
	rcTimeout   time.Duration
	rcOnSplice  []func(Spec, qos.Set)
	rcStarted   atomic.Uint64
	rcCompleted atomic.Uint64
	rcAborted   atomic.Uint64

	// wireHist, when instrumented, observes vectored wire-flush sizes.
	wireHist batchObserver
}

// NewRuntime builds (but does not start) a runtime for spec over the given
// transport channel.
func NewRuntime(spec Spec, reg *Registry, tch transport.Channel) (*Runtime, error) {
	modules, err := spec.build(reg)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		reg:       reg,
		tch:       tch,
		spec:      spec,
		stop:      make(chan struct{}),
		rcTimeout: defaultReconfigTimeout,
	}
	r.sendEx = &executor{}
	r.readEx = &executor{}
	stages := r.buildStages(modules)
	r.down, r.up = stages, stages
	r.statsStages = stages
	for i, s := range stages {
		if s.blocking {
			r.threaded = true
			r.pumps = append(r.pumps, i)
		}
	}
	if r.threaded {
		r.recvQ = make(chan *Packet, queueDepth)
		r.ctrlQ = make(chan []byte, 4)
	}
	return r, nil
}

// buildStages wires a generation of stages and their executors.
func (r *Runtime) buildStages(modules []Module) []*stage {
	stages := make([]*stage, len(modules))
	for i, m := range modules {
		_, blocking := m.(Blocker)
		s := &stage{mod: m, blocking: blocking}
		s.ctx = &Context{rt: r, idx: i, threaded: blocking}
		if blocking {
			s.downQ = make(chan *[]*Packet, queueDepth)
			s.upQ = make(chan *[]*Packet, queueDepth)
			s.events = make(chan any, queueDepth)
			s.ex = &executor{}
		}
		stages[i] = s
	}
	for _, s := range stages {
		s.ctx.stages = stages
	}
	// Down direction: the sender executor runs stages until the first
	// blocking boundary; each pump runs its own stage and the inline run
	// below it.
	cur := r.sendEx
	cur.downSink = nil
	for _, s := range stages {
		if s.blocking {
			cur.downSink = s
			cur = s.ex
			cur.downSink = nil
		}
		s.ctx.downEx = cur
	}
	// Up direction, mirrored from the transport side.
	cur = r.readEx
	cur.upSink = nil
	for i := len(stages) - 1; i >= 0; i-- {
		s := stages[i]
		if s.blocking {
			cur.upSink = s
			cur = s.ex
			cur.upSink = nil
		}
		s.ctx.upEx = cur
	}
	return stages
}

// Spec returns the protocol configuration the runtime currently executes.
func (r *Runtime) Spec() Spec {
	r.statsLock.Lock()
	defer r.statsLock.Unlock()
	return r.spec
}

// Segments reports the number of inline segments and threaded (pump)
// stages the graph was split into.
func (r *Runtime) Segments() (inline, threaded int) {
	threaded = len(r.pumps)
	run := false
	for _, s := range r.down { // segment shape is fixed per mode
		if s.blocking {
			run = false
			continue
		}
		if !run {
			inline++
			run = true
		}
	}
	if inline == 0 && threaded == 0 {
		inline = 1 // the empty stack is one passthrough segment
	}
	return inline, threaded
}

// Start runs the module Start hooks and launches the pump goroutines (if
// any). A failing hook poisons the runtime and surfaces synchronously.
func (r *Runtime) Start() error {
	if r.started.Swap(true) {
		return errors.New("dacapo: runtime already started")
	}
	for _, s := range r.down {
		if err := s.mod.Start(s.ctx); err != nil {
			err = fmt.Errorf("dacapo: start %s: %w", s.mod.Name(), err)
			r.recordErr(err)
			r.Close()
			return err
		}
		s.started = true
	}
	if r.threaded {
		for _, i := range r.pumps {
			r.wg.Add(1)
			go r.runPump(r.down[i])
		}
		r.wg.Add(1)
		go r.runReader()
	}
	return nil
}

func (r *Runtime) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// moduleName resolves a context back to its module name (diagnostics).
func (r *Runtime) moduleName(c *Context) string {
	if c.idx >= 0 && c.idx < len(c.stages) {
		return c.stages[c.idx].mod.Name()
	}
	return "?"
}

// downFrom runs the down direction from stage i: inline stages execute on
// the current goroutine, a blocking stage takes a batch hand-off, and the
// transport terminates the chain.
//
//coollint:hotpath inline down-direction dispatch spine
func (r *Runtime) downFrom(stages []*stage, i int, p *Packet, ex *executor) error {
	if i >= len(stages) {
		return r.wireOut(p, ex)
	}
	s := stages[i]
	if s.blocking {
		if ex != nil && ex.gather {
			ex.outDown = append(ex.outDown, p)
			return nil
		}
		return r.enqueueOne(s.downQ, p)
	}
	return s.mod.HandleDown(s.ctx, p)
}

// upFrom runs the up direction from stage i toward the application.
//
//coollint:hotpath inline up-direction dispatch spine
func (r *Runtime) upFrom(stages []*stage, i int, p *Packet, ex *executor) error {
	if i < 0 {
		return r.deliverApp(p, ex)
	}
	s := stages[i]
	if s.blocking {
		if ex != nil && ex.gather {
			ex.outUp = append(ex.outUp, p)
			return nil
		}
		return r.enqueueOne(s.upQ, p)
	}
	return s.mod.HandleUp(s.ctx, p)
}

// deliverApp hands a fully ascended packet to the application: the Recv
// caller's scratch in inline mode, the receive queue in threaded mode.
//
//coollint:hotpath application delivery
func (r *Runtime) deliverApp(p *Packet, ex *executor) error {
	if !r.threaded {
		r.scratch = append(r.scratch, p)
		return nil
	}
	if ex != nil && ex.gather {
		ex.outRecv = append(ex.outRecv, p)
		return nil
	}
	return r.deliverRecv(p)
}

func (r *Runtime) deliverRecv(p *Packet) error {
	select {
	case r.recvQ <- p:
		return nil
	case <-r.stop:
		PutPacket(p)
		return ErrStopped
	}
}

// enqueueOne hands a single packet across a segment boundary.
//
//coollint:hotpath segment-boundary hand-off
func (r *Runtime) enqueueOne(q chan *[]*Packet, p *Packet) error {
	bp := batchPool.Get()
	*bp = append(*bp, p)
	select {
	case q <- bp:
		return nil
	case <-r.stop:
		PutPacket(p)
		batchPool.Put(bp)
		return ErrStopped
	}
}

// enqueueBatch hands a gathered run of packets across a segment boundary
// in one channel operation.
func (r *Runtime) enqueueBatch(q chan *[]*Packet, pkts []*Packet) error {
	bp := batchPool.Get()
	*bp = append(*bp, pkts...)
	select {
	case q <- bp:
		return nil
	case <-r.stop:
		for _, p := range *bp {
			PutPacket(p)
		}
		batchPool.Put(bp)
		return ErrStopped
	}
}

// wireOut terminates the down chain at the transport. Data frames that
// collide with the control-frame magic are escape-wrapped (reconfig.go).
//
//coollint:hotpath wire egress
func (r *Runtime) wireOut(p *Packet, ex *executor) error {
	if hasCtrlMagic(p.Bytes()) {
		escapeWrap(p)
	}
	if ex != nil && ex.gather {
		ex.wire = append(ex.wire, p)
		return nil
	}
	if h := r.wireHist.Load(); h != nil {
		h.Observe(1) // ungathered write: a flush of one
	}
	err := r.tch.WriteMessage(p.Bytes())
	PutPacket(p)
	if err != nil {
		return fmt.Errorf("dacapo: transport write: %w", err)
	}
	return nil
}

// flushExec flushes an executor's gathered emissions as batches: one
// hand-off per boundary, one vectored write for the wire.
//
//coollint:hotpath batch flush at segment boundaries
func (r *Runtime) flushExec(ex *executor) error {
	var err error
	if len(ex.outDown) > 0 {
		err = r.enqueueBatch(ex.downSink.downQ, ex.outDown)
		clearPackets(&ex.outDown)
	}
	if len(ex.outUp) > 0 {
		if e := r.enqueueBatch(ex.upSink.upQ, ex.outUp); err == nil {
			err = e
		}
		clearPackets(&ex.outUp)
	}
	if len(ex.outRecv) > 0 {
		for i, p := range ex.outRecv {
			ex.outRecv[i] = nil
			if e := r.deliverRecv(p); err == nil {
				err = e
			}
		}
		ex.outRecv = ex.outRecv[:0]
	}
	if len(ex.wire) > 0 {
		if e := r.flushWire(ex); err == nil {
			err = e
		}
	}
	return err
}

// clearPackets resets a gather buffer without releasing the packets (they
// were handed off, or released by the hand-off's failure path).
func clearPackets(b *[]*Packet) {
	for i := range *b {
		(*b)[i] = nil
	}
	*b = (*b)[:0]
}

// releaseExec releases gathered packets that were never flushed (abort
// paths).
func (r *Runtime) releaseExec(ex *executor) {
	for _, b := range [][]*Packet{ex.outDown, ex.outUp, ex.outRecv, ex.wire} {
		for _, p := range b {
			PutPacket(p)
		}
	}
	ex.outDown, ex.outUp, ex.outRecv, ex.wire = ex.outDown[:0], ex.outUp[:0], ex.outRecv[:0], ex.wire[:0]
}

// flushWire writes the executor's gathered wire frames as one batch.
//
//coollint:hotpath vectored wire flush
func (r *Runtime) flushWire(ex *executor) error {
	pkts := ex.wire
	if h := r.wireHist.Load(); h != nil {
		h.Observe(uint64(len(pkts)))
	}
	frames := r.wireFrames[:0]
	for _, p := range pkts {
		frames = append(frames, p.Bytes()) //coollint:allocok growth lands in the reused r.wireFrames backing, amortized across flushes
	}
	err := r.tch.WriteMessages(frames)
	clear(frames) // drop aliases before the buffers are recycled
	r.wireFrames = frames
	for i, p := range pkts {
		PutPacket(p)
		ex.wire[i] = nil
	}
	ex.wire = ex.wire[:0]
	if err != nil {
		return fmt.Errorf("dacapo: transport write: %w", err)
	}
	return nil
}

// Send injects application data at the top of the stack (the A interface).
// In inline mode the payload is borrowed: the whole down chain, wire write
// included, completes before Send returns. In threaded mode the payload is
// copied and handed to the first segment.
//
//coollint:hotpath application send entry; runs the down chain inline
func (r *Runtime) Send(data []byte) error {
	r.sendMu.Lock()
	err := r.sendLocked(data) //coollint:allow lockhold -- backpressure by design: a full blocking-segment queue stalls senders; the pump drains it without ever taking sendMu
	r.sendMu.Unlock()
	return err
}

func (r *Runtime) sendLocked(data []byte) error {
	if r.stopped() {
		return r.closeErr()
	}
	var p *Packet
	if r.threaded {
		p = GetPacket(data)
	} else {
		p = wrapBorrowed(data)
	}
	return r.finishSend(r.downFrom(r.down, 0, p, r.sendEx))
}

func (r *Runtime) finishSend(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrStopped) {
		return r.closeErr()
	}
	r.fail(err)
	return err
}

// SendBatch sends every frame through the stack under one lock
// acquisition; the resulting wire frames leave in a single vectored write
// (inline mode) or cross into the first segment as one batch (threaded
// mode). Frames are borrowed for the duration of the call.
//
//coollint:hotpath batched application send entry
func (r *Runtime) SendBatch(frames [][]byte) error {
	r.sendMu.Lock()
	if r.stopped() {
		r.sendMu.Unlock()
		return r.closeErr()
	}
	ex := r.sendEx
	ex.gather = true
	var err error
	for _, f := range frames {
		var p *Packet
		if r.threaded {
			p = GetPacket(f)
		} else {
			p = wrapBorrowed(f)
		}
		if err = r.downFrom(r.down, 0, p, ex); err != nil { //coollint:allow lockhold -- backpressure by design: the pump drains the boundary queue without taking sendMu
			break
		}
	}
	if err != nil {
		r.releaseExec(ex)
	} else {
		err = r.flushExec(ex) //coollint:allow lockhold -- backpressure by design: the pump drains the boundary queue without taking sendMu
	}
	ex.gather = false
	err = r.finishSend(err)
	r.sendMu.Unlock()
	return err
}

// Recv returns the next application payload delivered by the stack. In
// inline mode the caller is the receive executor: it reads the transport
// and runs the up chain run-to-completion. After shutdown it drains
// pending packets, then returns io.EOF (peer closed) or the runtime's
// first error.
//
//coollint:hotpath application receive entry; runs the up chain inline
func (r *Runtime) Recv() ([]byte, error) {
	if r.threaded {
		select {
		case p := <-r.recvQ:
			return r.detach(p), nil
		case <-r.stop:
			select {
			case p := <-r.recvQ:
				return r.detach(p), nil
			default:
				return nil, r.closeErr()
			}
		}
	}
	r.readMu.Lock()
	for {
		if p := r.takeScratch(); p != nil {
			out := r.detach(p)
			r.readMu.Unlock()
			return out, nil
		}
		if err := r.recvStepLocked(); err != nil { //coollint:allow lockhold -- ctrl completion sends land in a cap-1 buffered slot with a single waiter; never blocks
			r.readMu.Unlock()
			return nil, r.closeErr()
		}
	}
}

// takeScratch pops the next application-bound packet (readMu held).
func (r *Runtime) takeScratch() *Packet {
	if r.scratchHead >= len(r.scratch) {
		return nil
	}
	p := r.scratch[r.scratchHead]
	r.scratch[r.scratchHead] = nil
	r.scratchHead++
	if r.scratchHead == len(r.scratch) {
		r.scratch = r.scratch[:0]
		r.scratchHead = 0
	}
	return p
}

// recvStepLocked reads one transport frame under readMu and runs it up
// the stack (control frames dispatch to the reconfiguration handler).
// Errors are already recorded when it returns non-nil; the caller
// surfaces closeErr.
//
//coollint:hotpath inline receive step
func (r *Runtime) recvStepLocked() error {
	msg, err := r.tch.ReadMessage()
	if err != nil {
		r.readFailed(err)
		return err
	}
	off := 0
	if kind, ok := ctrlKind(msg); ok {
		if kind != ctrlEscape {
			r.handleCtrl(kind, msg)
			transport.PutBuffer(msg)
			return nil
		}
		off = ctrlHdrLen
	}
	p := wrapMessage(msg, off)
	if herr := r.upFrom(r.up, len(r.up)-1, p, r.readEx); herr != nil && !errors.Is(herr, ErrStopped) {
		r.fail(herr)
		return herr
	}
	return nil
}

// readFailed maps a transport read error: peer close is a graceful EOF,
// anything else poisons the runtime.
func (r *Runtime) readFailed(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
		r.shutdown(io.EOF)
	} else {
		r.fail(fmt.Errorf("dacapo: transport read: %w", err))
	}
}

// detach hands a packet's payload to the application. A payload that
// still starts at its buffer's base (nothing was stripped) transfers the
// arena buffer itself — zero copy; otherwise the payload is copied into a
// fresh arena buffer so the original's base pointer stays intact for the
// pool ledger. Either way the caller recycles via transport.PutBuffer.
//
//coollint:hotpath receive hand-off to the application
func (r *Runtime) detach(p *Packet) []byte {
	if p.owned && p.off == 0 {
		out := p.buf[:p.end]
		p.owned = false
		PutPacket(p)
		return out
	}
	n := p.Len()
	b := bufpool.Get(n)
	out := b[:n]
	copy(out, p.Bytes())
	PutPacket(p)
	return out
}

// runReader pumps inbound transport messages into the bottom inline
// segment (threaded mode only).
//
//coollint:hotpath threaded-mode transport reader; runs the bottom inline segment
func (r *Runtime) runReader() {
	defer r.wg.Done()
	up := r.up // threaded graphs are never respliced
	for {
		msg, err := r.tch.ReadMessage()
		if err != nil {
			r.readFailed(err)
			return
		}
		off := 0
		if kind, ok := ctrlKind(msg); ok {
			if kind != ctrlEscape {
				r.ctrlThreaded(kind, msg)
				transport.PutBuffer(msg)
				continue
			}
			off = ctrlHdrLen
		}
		p := wrapMessage(msg, off)
		if herr := r.upFrom(up, len(up)-1, p, r.readEx); herr != nil {
			if !errors.Is(herr, ErrStopped) {
				r.fail(herr)
			}
			return
		}
	}
}

// runPump is a blocking module's goroutine: it owns both directions and
// the event queue of its stage and runs the inline segment below (down)
// and above (up) run-to-completion, gathering cross-boundary emissions
// per batch.
//
//coollint:hotpath module pump; run-to-completion over its inline segments
func (r *Runtime) runPump(s *stage) {
	defer r.wg.Done()
	ctx := s.ctx
	ex := s.ex
	var pending []*Packet // accepted but undelivered while paused
	head := 0
	var ctrlQ chan []byte
	if ex.downSink == nil && r.pumps[len(r.pumps)-1] == ctx.idx {
		// The bottom-most pump owns the wire; it also writes control
		// replies on the reader's behalf.
		ctrlQ = r.ctrlQ
	}
	//coollint:allocok one closure per pump lifetime, not per packet
	bail := func(err error) bool {
		if err == nil {
			return false
		}
		if !errors.Is(err, ErrStopped) {
			r.fail(err)
		}
		return true
	}
	//coollint:allocok one closure per pump lifetime, not per packet
	exit := func() {
		for _, p := range pending[head:] {
			PutPacket(p)
		}
		r.releaseExec(ex)
	}
	for {
		if !ctx.downPaused && head < len(pending) {
			p := pending[head]
			pending[head] = nil
			head++
			if head == len(pending) {
				pending = pending[:0]
				head = 0
			}
			ex.gather = true
			err := s.mod.HandleDown(ctx, p)
			if err == nil {
				err = r.flushExec(ex)
			}
			ex.gather = false
			if bail(err) {
				exit()
				return
			}
			continue
		}
		dq := s.downQ
		if ctx.downPaused {
			dq = nil
		}
		select {
		case bp := <-dq:
			batch := *bp
			ctx.observeBatch(len(batch))
			ex.gather = true
			var err error
			for _, p := range batch {
				switch {
				case err != nil:
					PutPacket(p)
				case ctx.downPaused:
					pending = append(pending, p) //coollint:allocok paused-intake spill buffer; bounded by queueDepth batches
				default:
					err = s.mod.HandleDown(ctx, p)
				}
			}
			batchPool.Put(bp)
			if err == nil {
				err = r.flushExec(ex)
			}
			ex.gather = false
			if bail(err) {
				exit()
				return
			}
		case bp := <-s.upQ:
			batch := *bp
			ctx.observeBatch(len(batch))
			ex.gather = true
			var err error
			for _, p := range batch {
				if err != nil {
					PutPacket(p)
					continue
				}
				err = s.mod.HandleUp(ctx, p)
			}
			batchPool.Put(bp)
			if err == nil {
				err = r.flushExec(ex)
			}
			ex.gather = false
			if bail(err) {
				exit()
				return
			}
		case ev := <-s.events:
			ex.gather = true
			err := s.mod.HandleEvent(ctx, ev)
			if err != nil {
				err = fmt.Errorf("dacapo: module %s: %w", s.mod.Name(), err)
			} else {
				err = r.flushExec(ex)
			}
			ex.gather = false
			if bail(err) {
				exit()
				return
			}
		case f := <-ctrlQ:
			if err := r.tch.WriteMessage(f); err != nil {
				r.fail(fmt.Errorf("dacapo: transport write: %w", err))
				exit()
				return
			}
		case <-r.stop:
			exit()
			return
		}
	}
}

func (r *Runtime) postEvent(c *Context, ev any) {
	s := c.stages[c.idx]
	select {
	case s.events <- ev:
	case <-r.stop:
	}
}

func (r *Runtime) recordErr(err error) {
	e := err
	r.firstErr.CompareAndSwap(nil, &e)
}

func (r *Runtime) fail(err error) {
	r.recordErr(err)
	r.shutdownLocked()
}

func (r *Runtime) shutdown(err error) {
	r.recordErr(err)
	r.shutdownLocked()
}

func (r *Runtime) shutdownLocked() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.tch.Close()
	})
}

func (r *Runtime) closeErr() error {
	if e := r.firstErr.Load(); e != nil {
		return *e
	}
	return ErrStopped
}

// Close stops the runtime, closes the transport channel, waits for the
// pump goroutines to exit, drains every queue and runs the module Stop
// hooks.
func (r *Runtime) Close() error {
	r.shutdown(ErrStopped)
	r.wg.Wait()
	r.closeOnce.Do(r.teardown)
	return nil
}

// teardown quiesces the executors, releases every packet still inside the
// runtime and runs the Stop hooks of all live module generations.
func (r *Runtime) teardown() {
	// Lock order readMu -> sendMu, matching the control-frame reply path.
	r.readMu.Lock()
	defer r.readMu.Unlock()
	r.sendMu.Lock()
	defer r.sendMu.Unlock()

	for _, p := range r.scratch[r.scratchHead:] {
		PutPacket(p)
	}
	r.scratch = r.scratch[:0]
	r.scratchHead = 0
	r.releaseExec(r.sendEx)
	r.releaseExec(r.readEx)

	stopSeen := make(map[*stage]bool)
	stopGen := func(stages []*stage) {
		for _, s := range stages {
			if stopSeen[s] || !s.started {
				continue
			}
			stopSeen[s] = true
			if s.blocking {
				drainBatchQ(s.downQ)
				drainBatchQ(s.upQ)
			}
			if err := s.mod.Stop(s.ctx); err != nil {
				r.recordErr(fmt.Errorf("dacapo: stop %s: %w", s.mod.Name(), err))
			}
		}
	}
	stopGen(r.down)
	stopGen(r.up)
	r.reconfigTeardown(stopGen)
	if r.threaded {
		drainRecvQ(r.recvQ)
	}
}

func drainRecvQ(q chan *Packet) {
	for {
		select {
		case p := <-q:
			PutPacket(p)
		default:
			return
		}
	}
}

// observeBatch records a pump-batch size against the module's histogram.
func (c *Context) observeBatch(n int) {
	if h := c.batchHist.Load(); h != nil {
		h.Observe(uint64(n))
	}
}

func drainBatchQ(q chan *[]*Packet) {
	for {
		select {
		case bp := <-q:
			for _, p := range *bp {
				PutPacket(p)
			}
			batchPool.Put(bp)
		default:
			return
		}
	}
}

// Err returns the first fatal error observed by the runtime, if any.
func (r *Runtime) Err() error {
	if e := r.firstErr.Load(); e != nil && !errors.Is(*e, ErrStopped) && !errors.Is(*e, io.EOF) {
		return *e
	}
	return nil
}

// ModuleStats is a monitoring snapshot for one module (the management
// component's monitoring duty).
type ModuleStats struct {
	Name        string
	DownPackets uint64
	DownBytes   uint64
	UpPackets   uint64
	UpBytes     uint64
	Drops       uint64
}

// Stats snapshots per-module counters, ordered from A side to T side.
// Counters of module generations retired by a mid-stream reconfiguration
// are retained, so totals stay monotonic across splices.
func (r *Runtime) Stats() []ModuleStats {
	r.statsLock.Lock()
	defer r.statsLock.Unlock()
	out := make([]ModuleStats, 0, len(r.retired)+len(r.statsStages))
	out = append(out, r.retired...)
	for _, s := range r.statsStages {
		out = append(out, snapshotStats(s))
	}
	return out
}

func snapshotStats(s *stage) ModuleStats {
	c := s.ctx
	return ModuleStats{
		Name:        s.mod.Name(),
		DownPackets: c.downPkts.Load(),
		DownBytes:   c.downBytes.Load(),
		UpPackets:   c.upPkts.Load(),
		UpBytes:     c.upBytes.Load(),
		Drops:       c.drops.Load(),
	}
}
