// Allocation budgets and concurrency stress for the zero-allocation
// invocation hot path (see DESIGN.md "Performance").
package cool_test

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	cool "cool"
	"cool/internal/bufpool"
	"cool/internal/cdr"
	"cool/internal/coolproto"
	"cool/internal/giop"
	"cool/internal/orb"
	"cool/internal/transport"
)

// inlineEcho echoes its argument; the reply writer aliases the request
// frame (valid until the writer has run, per the Invocation contract).
type inlineEcho struct{}

func (inlineEcho) RepoID() string { return "IDL:perf/Echo:1.0" }

func (inlineEcho) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	msg, err := inv.Args.ReadOctetSeq()
	if err != nil {
		return nil, giop.MarshalException()
	}
	return func(enc *cdr.Encoder) { enc.WriteOctetSeq(msg) }, nil
}

// echoEnv wires two ORBs over a shared in-process transport with an
// inline-dispatch echo servant on the server side, speaking GIOP.
func echoEnv(t testing.TB) (client *cool.ORB, obj *cool.Object) {
	return echoEnvProtocol(t, "giop")
}

// echoEnvProtocol is echoEnv with the message protocol chosen ("giop" or
// "cool").
func echoEnvProtocol(t testing.TB, protocol string) (client *cool.ORB, obj *cool.Object) {
	t.Helper()
	inner := transport.NewInprocManager()
	server := orb.New(orb.WithName("perf-server"), orb.WithTransport(inner), orb.WithMessageProtocol(coolproto.Codec{}))
	client = orb.New(orb.WithName("perf-client"), orb.WithTransport(inner), orb.WithMessageProtocol(coolproto.Codec{}))
	t.Cleanup(func() { client.Shutdown(); server.Shutdown() })
	if _, err := server.ListenOnProtocol("inproc", "perf-echo", protocol); err != nil {
		t.Fatal(err)
	}
	ref, err := server.RegisterServant(inlineEcho{}, cool.WithInlineDispatch())
	if err != nil {
		t.Fatal(err)
	}
	return client, client.Resolve(ref)
}

// TestWarmEchoAllocBudget pins the whole-process allocation count of a warm
// two-way echo over inproc: pooled frames in both directions, pooled
// messages and headers, reused reply slots, and inline server dispatch must
// keep client + server combined at ≤ 2 allocations per invocation
// (testing.AllocsPerRun counts mallocs globally, so the budget covers both
// sides). The budget is the same for both message protocols.
func TestWarmEchoAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget measured without -race")
	}
	if bufpool.DebugEnabled {
		t.Skip("pooldebug bookkeeping allocates; budget measured without -tags pooldebug")
	}
	for _, protocol := range []string{"giop", "cool"} {
		t.Run(protocol, func(t *testing.T) { warmEchoAllocBudget(t, protocol) })
	}
}

func warmEchoAllocBudget(t *testing.T, protocol string) {
	_, obj := echoEnvProtocol(t, protocol)
	payload := bytes.Repeat([]byte{0x5a}, 64)
	args := func(enc *cdr.Encoder) { enc.WriteOctetSeq(payload) }
	got := make([]byte, 0, 64)
	out := func(dec *cdr.Decoder) error {
		p, err := dec.ReadOctetSeq()
		got = append(got[:0], p...)
		return err
	}
	invoke := func() {
		if err := obj.Invoke("echo", args, out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm pools, intern table, metric handles
		invoke()
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: got %d bytes", len(got))
	}
	allocs := testing.AllocsPerRun(500, invoke)
	if allocs > 2 {
		t.Errorf("warm echo allocated %.2f objects/op, budget is 2", allocs)
	}
}

// TestCoolEchoRecyclesFrames: COOL-protocol frames and messages return to
// their pools like GIOP ones. Under -tags pooldebug the leak ledger must
// not grow across warm echoes (every unreleased request or reply frame,
// message or header would add an entry); a little slack covers pooled
// encoders the garbage collector drops mid-run, whose buffers stay on the
// ledger. Without the tag the ledger is empty and this only exercises the
// path.
func TestCoolEchoRecyclesFrames(t *testing.T) {
	_, obj := echoEnvProtocol(t, "cool")
	payload := bytes.Repeat([]byte{0x3c}, 64)
	args := func(enc *cdr.Encoder) { enc.WriteOctetSeq(payload) }
	out := func(dec *cdr.Decoder) error {
		p, err := dec.ReadOctetSeq()
		if err == nil && !bytes.Equal(p, payload) {
			err = errors.New("echo mismatch")
		}
		return err
	}
	invoke := func() {
		if err := obj.Invoke("echo", args, out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		invoke()
	}
	before := len(bufpool.Leaks())
	const calls = 256
	for i := 0; i < calls; i++ {
		invoke()
	}
	if grown := len(bufpool.Leaks()) - before; grown > calls/16 {
		t.Fatalf("leak ledger grew by %d entries over %d warm echoes:\n%s", grown, calls, bufpool.Leaks()[0])
	}
}

// TestCombinerGatherAllocBudget pins the allocation count of the batched
// send path when several callers share one connection's write combiner.
// Persistent worker goroutines (spawned once, outside the measured region)
// are released in lockstep so their frames gather into shared vectored
// writes; the combiner itself must add nothing per frame — batches drain
// into the recycled spare queue array, so the whole round stays within the
// per-invocation warm-echo budget times the caller count.
func TestCombinerGatherAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget measured without -race")
	}
	if bufpool.DebugEnabled {
		t.Skip("pooldebug bookkeeping allocates; budget measured without -tags pooldebug")
	}
	_, obj := echoEnv(t)
	const callers = 4
	payload := bytes.Repeat([]byte{0xa5}, 64)
	work := make(chan struct{}, callers)
	done := make(chan error, callers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := func(enc *cdr.Encoder) { enc.WriteOctetSeq(payload) }
			out := func(dec *cdr.Decoder) error {
				_, err := dec.ReadOctetSeq()
				return err
			}
			for {
				select {
				case <-stop:
					return
				case <-work:
					done <- obj.Invoke("echo", args, out)
				}
			}
		}()
	}
	t.Cleanup(func() { close(stop); wg.Wait() })
	round := func() {
		for i := 0; i < callers; i++ {
			work <- struct{}{}
		}
		for i := 0; i < callers; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 64; i++ { // warm pools, reply-slot freelist, pending map
		round()
	}
	allocs := testing.AllocsPerRun(200, round)
	if allocs > 2*callers {
		t.Errorf("gathered round of %d invokes allocated %.2f objects, budget is %d",
			callers, allocs, 2*callers)
	}
}

// TestDeferredConcurrencyStress hammers one multiplexed connection with
// concurrent InvokeDeferred/Poll/Cancel/Wait from many goroutines,
// including Wait racing Cancel on the same Pending. Run under -race it
// checks the goroutine-free future implementation for data races and for
// reply-slot mix-ups (every completed echo must carry its own payload).
func TestDeferredConcurrencyStress(t *testing.T) {
	_, obj := echoEnv(t)
	const goroutines = 16
	const iters = 80
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g)}, 32)
			args := func(enc *cdr.Encoder) { enc.WriteOctetSeq(payload) }
			out := func(dec *cdr.Decoder) error {
				p, err := dec.ReadOctetSeq()
				if err != nil {
					return err
				}
				if !bytes.Equal(p, payload) {
					return errors.New("cross-wired reply payload")
				}
				return nil
			}
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0: // plain synchronous invoke interleaved
					if err := obj.Invoke("echo", args, out); err != nil {
						t.Error(err)
						return
					}
				case 1: // defer + wait
					p, err := obj.InvokeDeferred("echo", args)
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.Wait(out); err != nil {
						t.Error(err)
						return
					}
				case 2: // defer + poll-spin + wait
					p, err := obj.InvokeDeferred("echo", args)
					if err != nil {
						t.Error(err)
						return
					}
					for !p.Poll() {
						runtime.Gosched()
					}
					if err := p.Wait(out); err != nil {
						t.Error(err)
						return
					}
				case 3: // wait racing cancel
					p, err := obj.InvokeDeferred("echo", args)
					if err != nil {
						t.Error(err)
						return
					}
					done := make(chan error, 1)
					go func() { done <- p.Wait(out) }()
					cerr := p.Cancel()
					if cerr != nil && !errors.Is(cerr, transport.ErrClosed) {
						t.Error(cerr)
						return
					}
					// Either the reply won (nil) or the cancel did.
					if werr := <-done; werr != nil && !errors.Is(werr, orb.ErrCanceled) {
						t.Error(werr)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// gatedEcho parks inside Invoke until released, so a test can order the
// reply's arrival relative to a client-side Cancel. Registered with inline
// dispatch it also parks the server connection's read loop, which queues
// the CancelRequest behind the in-flight request — deterministically
// producing a reply that reaches the client after Cancel unregistered the
// request id.
type gatedEcho struct {
	entered chan struct{}
	release chan struct{}
}

func (gatedEcho) RepoID() string { return "IDL:perf/GatedEcho:1.0" }

func (g gatedEcho) Invoke(*cool.Invocation) (cool.ReplyWriter, error) {
	g.entered <- struct{}{}
	<-g.release
	return func(enc *cdr.Encoder) { enc.WriteULong(99) }, nil
}

// TestCancelRacesLateReply pins the Pending.Cancel/Wait contract against a
// reply that lands after cancellation: Wait must settle with ErrCanceled,
// and the late reply must be counted as an orphan and recycled (the
// pooldebug run of this test verifies the recycle — a dropped orphan shows
// up in the buffer ledger, a double release panics).
func TestCancelRacesLateReply(t *testing.T) {
	inner := transport.NewInprocManager()
	server := orb.New(orb.WithName("late-server"), orb.WithTransport(inner))
	client := orb.New(orb.WithName("late-client"), orb.WithTransport(inner))
	t.Cleanup(func() { client.Shutdown(); server.Shutdown() })
	if _, err := server.ListenOn("inproc", "late-echo"); err != nil {
		t.Fatal(err)
	}
	g := gatedEcho{entered: make(chan struct{}), release: make(chan struct{})}
	ref, err := server.RegisterServant(g, cool.WithInlineDispatch())
	if err != nil {
		t.Fatal(err)
	}
	obj := client.Resolve(ref)

	orphans := func() uint64 {
		return cool.Metrics(client).Snapshot().Counter("orb.client.orphan_replies")
	}

	const rounds = 8
	for i := 0; i < rounds; i++ {
		p, err := obj.InvokeDeferred("echo", nil)
		if err != nil {
			t.Fatal(err)
		}
		<-g.entered // the servant is parked; no reply has been written yet

		waitErr := make(chan error, 1)
		go func() { waitErr <- p.Wait(nil) }()

		if err := p.Cancel(); err != nil {
			t.Fatal(err)
		}
		if werr := <-waitErr; !errors.Is(werr, orb.ErrCanceled) {
			t.Fatalf("Wait racing Cancel = %v, want ErrCanceled", werr)
		}
		if p.Poll() != true {
			t.Fatal("Poll after Cancel reported in-flight")
		}

		// Unpark the servant: the reply is written now, after the request
		// id was unregistered, and must be orphaned on the client.
		g.release <- struct{}{}
	}

	deadline := time.Now().Add(5 * time.Second)
	for orphans() < rounds {
		if time.Now().After(deadline) {
			t.Fatalf("orphan replies = %d, want %d", orphans(), rounds)
		}
		time.Sleep(time.Millisecond)
	}
}
