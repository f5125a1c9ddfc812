package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	cool "cool"
	"cool/internal/qos"
	"cool/internal/transport"
)

// renegotiate_live: one Da CaPo channel whose QoS is switched
// plain → encrypted → reliable → plain for as long as the run lasts, a 1 KiB
// ping-pong after every switch. The echo end is the benchmark's own accept
// loop, so every connection the manager opens behind the channel is
// counted.

// lossyLink is a link capability that admits to loss, so a demand for
// reliability makes dacapo.Configure add window+crc32 to the stack.
func lossyLink() cool.Capability {
	return cool.Capability{
		qos.Throughput:  {Best: 155_000, Supported: true},
		qos.Latency:     {Best: 200, Supported: true},
		qos.Jitter:      {Best: 0, Supported: true},
		qos.Ordering:    {Best: 1, Supported: true},
		qos.Priority:    {Best: 255, Supported: true},
		qos.Reliability: {Best: 1_000, Supported: true}, // lost per million
	}
}

// The cycle, in order. Each step is named after the QoS it switches to.
var renegSteps = []struct {
	name, span string
	set        cool.QoSSet
}{
	{"encrypted", "switch_encrypted", cool.QoS(cool.Encrypted())},
	{"reliable", "switch_reliable", cool.QoS(cool.Reliable()...)},
	{"plain", "switch_plain", nil},
}

type renegInst struct {
	// The two ORBs only host the Da CaPo managers, which puts the
	// managers' counters into a public metrics snapshot.
	dialORB, acceptORB *cool.ORB
	listener           transport.Listener
	ch                 transport.Channel
	payload            []byte
	seq                uint64
	cycles             int64
	sink               *spanSink

	accepted   atomic.Int64 // connections the echo end accepted
	echoExpect atomic.Uint64
	echoFailed atomic.Int64
	echoWhy    atomic.Pointer[string]
	servers    sync.WaitGroup
}

func startReneg(size int) func(*config) (instance, error) {
	return func(cfg *config) (instance, error) {
		inner := transport.NewInprocManager()
		in := &renegInst{sink: newSpanSink(cfg.trace)}
		in.dialORB = cool.NewORB(cool.WithName("bench-dial"), cool.WithTransport(inner))
		in.acceptORB = cool.NewORB(cool.WithName("bench-accept"), cool.WithTransport(inner))
		dial := cool.EnableDaCaPo(in.dialORB, cool.DaCaPoConfig{Inner: inner, Link: lossyLink()})
		accept := cool.EnableDaCaPo(in.acceptORB, cool.DaCaPoConfig{Inner: inner, Link: lossyLink()})
		in.payload = seededPayload(rand.New(rand.NewSource(int64(cfg.seed))), size)

		l, err := accept.Listen("")
		if err != nil {
			in.shutdown()
			return nil, err
		}
		in.listener = l
		in.servers.Add(1)
		go in.acceptLoop()
		if in.ch, err = dial.Dial(l.Addr()); err == nil {
			// The first write configures the channel for the empty set.
			err = in.pingPong()
		}
		if err != nil {
			in.close()
			return nil, err
		}
		return in, nil
	}
}

// acceptLoop echoes every accepted channel until the listener closes.
func (in *renegInst) acceptLoop() {
	defer in.servers.Done()
	for {
		ch, err := in.listener.Accept()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return
			}
			in.echoFail("accept: %v", err)
			continue
		}
		in.accepted.Add(1)
		in.servers.Add(1)
		go in.echo(ch)
	}
}

// echo answers every message on ch and checks that the sequence numbers it
// sees continue across all channels: a switch may lose or repeat nothing.
func (in *renegInst) echo(ch transport.Channel) {
	defer in.servers.Done()
	defer ch.Close()
	for {
		msg, err := ch.ReadMessage()
		if err != nil {
			return // the dialling side moved on or closed
		}
		if len(msg) < 8 {
			in.echoFail("echo end got %d octets", len(msg))
		} else if seq, want := binary.BigEndian.Uint64(msg), in.echoExpect.Add(1)-1; seq != want {
			in.echoFail("echo end got sequence %d, want %d", seq, want)
			in.echoExpect.Store(seq + 1)
		}
		err = ch.WriteMessage(msg)
		transport.PutBuffer(msg)
		if err != nil {
			return
		}
	}
}

func (in *renegInst) echoFail(format string, a ...any) {
	why := fmt.Sprintf(format, a...)
	in.echoWhy.CompareAndSwap(nil, &why)
	in.echoFailed.Add(1)
}

func (in *renegInst) pingPong() error {
	binary.BigEndian.PutUint64(in.payload, in.seq)
	in.seq++
	if err := in.ch.WriteMessage(in.payload); err != nil {
		return err
	}
	msg, err := in.ch.ReadMessage()
	if err != nil {
		return err
	}
	same := bytes.Equal(msg, in.payload)
	transport.PutBuffer(msg)
	if !same {
		return errMismatch
	}
	return nil
}

func (in *renegInst) callers() int { return 1 }

func (in *renegInst) prepare(int, uint64) error { return nil }

// op is one full cycle.
func (in *renegInst) op(_ int, cycle uint64, traced bool) error {
	in.cycles++
	start := now()
	t0 := start
	for _, step := range renegSteps {
		granted, err := in.ch.SetQoSParameter(step.set)
		if err != nil {
			return fmt.Errorf("switch to %s: %w", step.name, err)
		}
		if !satisfies(granted, step.set) {
			return fmt.Errorf("switch to %s granted %v", step.name, granted)
		}
		var t1 int64
		if traced {
			t1 = now()
		}
		if err := in.pingPong(); err != nil {
			return fmt.Errorf("ping-pong after switch to %s: %w", step.name, err)
		}
		if traced {
			t2 := now()
			in.sink.add(step.span, t0, t1, "cycle", cycle)
			in.sink.add("pingpong", t1, t2, "cycle", cycle)
			t0 = t2
		}
	}
	if traced {
		in.sink.add("cycle", start, t0, "", cycle)
	}
	return nil
}

func (in *renegInst) drive(r *run) { driveLoop(in, r) }

func (in *renegInst) finish(lr layerReport) error {
	if n := in.echoFailed.Load(); n > 0 {
		return fmt.Errorf("%d failures at the echo end, first: %s", n, *in.echoWhy.Load())
	}
	snap := cool.Metrics(in.dialORB).Snapshot()
	inplace := float64(snap.Counter("dacapo.reconfig.completed"))
	redials := float64(in.accepted.Load() - 1) // the first connection is the set-up's
	lr["dacapo.reconfig_inplace"] = inplace
	lr["dacapo.reconfig_redial"] = redials
	lr["dacapo.segments_threaded"] = float64(snap.Gauge("dacapo.segments.threaded"))
	if h, ok := snap.Histogram("dacapo.batch.size{stage=window}"); ok && h.Count > 0 {
		lr["dacapo.batch_size_mean"] = float64(h.Sum) / float64(h.Count)
	}
	if in.cycles > 0 && (inplace < 1 || redials < 1) {
		return fmt.Errorf("%d cycles made %v in-place and %v re-dialled switches; want both kinds", in.cycles, inplace, redials)
	}
	return nil
}

func (in *renegInst) spans() []span { return in.sink.spans() }

func (in *renegInst) close() error {
	if in.ch != nil {
		in.ch.Close()
	}
	if in.listener != nil {
		in.listener.Close()
	}
	in.servers.Wait()
	in.shutdown()
	return nil
}

func (in *renegInst) shutdown() {
	in.dialORB.Shutdown()
	in.acceptORB.Shutdown()
}
