package dacapo_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cool/internal/bufpool"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/qos"
	"cool/internal/transport"
)

// wireRecorder is a transport.Channel that keeps a copy of every frame
// the runtime writes and delivers nothing until it is closed.
type wireRecorder struct {
	mu     sync.Mutex
	frames [][]byte
	wrote  chan struct{} // one token per write call, dropped when full
	closed chan struct{}
	once   sync.Once
}

func newWireRecorder() *wireRecorder {
	return &wireRecorder{wrote: make(chan struct{}, 1), closed: make(chan struct{})}
}

func (w *wireRecorder) WriteMessage(p []byte) error { return w.WriteMessages([][]byte{p}) }

func (w *wireRecorder) WriteMessages(frames [][]byte) error {
	w.mu.Lock()
	for _, f := range frames {
		w.frames = append(w.frames, bytes.Clone(f))
	}
	w.mu.Unlock()
	select {
	case w.wrote <- struct{}{}:
	default:
	}
	return nil
}

func (w *wireRecorder) ReadMessage() ([]byte, error) {
	<-w.closed
	return nil, transport.ErrClosed
}

func (w *wireRecorder) recorded() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.frames...)
}

func (w *wireRecorder) Buffered() bool                             { return false }
func (w *wireRecorder) SetQoSParameter(p qos.Set) (qos.Set, error) { return transport.NoQoS(p) }
func (w *wireRecorder) Close() error {
	w.once.Do(func() { close(w.closed) })
	return nil
}
func (w *wireRecorder) LocalAddr() string  { return "recorder" }
func (w *wireRecorder) RemoteAddr() string { return "recorder" }

// TestWindowAcksOncePerRound: k in-order DATA packets that are queued for
// the window's pump before it starts form one pump round, and the round
// sends one cumulative ACK, for seq k-1, instead of one ACK per packet.
func TestWindowAcksOncePerRound(t *testing.T) {
	const k = 8
	wire := newWireRecorder()
	spec := dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "window"}}}
	r, err := dacapo.NewRuntime(spec, modules.NewLibrary(), wire)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, k)
	for i := range data {
		f := []byte{0, 0, 0, 0, 0, byte(i)} // [DATA][seq:4][payload]
		binary.BigEndian.PutUint32(f[1:], uint32(i))
		data[i] = f
	}
	dacapo.QueueUp(r, 0, data)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < k; i++ {
		msg, err := r.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(msg) != 1 || msg[0] != byte(i) {
			t.Fatalf("message %d reads % x", i, msg)
		}
		transport.PutBuffer(msg)
	}
	// Delivery precedes the wire flush of the same round: wait for the
	// write, then stop the pump before counting.
	select {
	case <-wire.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("no ACK written")
	}
	r.Close()
	want := []byte{1, 0, 0, 0, k - 1} // [ACK][seq:4]
	if got := wire.recorded(); len(got) != 1 || !bytes.Equal(got[0], want) {
		t.Fatalf("one round of %d DATA packets wrote %d frames % x, want one ACK % x", k, len(got), got, want)
	}
}

// dataFrame is a window DATA frame for seq with a one-octet payload.
func dataFrame(seq int) []byte {
	f := []byte{0, 0, 0, 0, 0, byte(seq)} // [DATA][seq:4][payload]
	binary.BigEndian.PutUint32(f[1:], uint32(seq))
	return f
}

// TestReaderHandsQueuedFramesOnAsOneRound: frames the transport already
// holds when the reader takes one reach the window's pump as one batch,
// one up round, instead of one batch per frame. A control frame between
// them flushes the data before it, so data and control keep their order.
func TestReaderHandsQueuedFramesOnAsOneRound(t *testing.T) {
	cases := []struct {
		name  string
		ctrl  int // index of the control frame among the frames; -1 for none
		n     int // DATA frames
		sizes []int
	}{
		{"data", -1, 8, []int{8}},
		{"control between", 3, 8, []int{3, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := transport.NewInprocManager()
			l, err := m.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			peer, err := m.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			ch, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			spec := dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "window"}}}
			r, err := dacapo.NewRuntime(spec, modules.NewLibrary(), ch)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for i := 0; i < tc.n; i++ {
				if i == tc.ctrl {
					if err := peer.WriteMessage(dacapo.StaleCtrlFrame()); err != nil {
						t.Fatal(err)
					}
				}
				if err := peer.WriteMessage(dataFrame(i)); err != nil {
					t.Fatal(err)
				}
			}
			sizes, err := dacapo.ReadRound(r, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sizes, tc.sizes) {
				t.Fatalf("reader handed the window batches of %v, want %v", sizes, tc.sizes)
			}
			if ch.Buffered() {
				t.Fatal("the round left queued frames behind")
			}
		})
	}
}

// TestRecvHoldsDeliveredBatch: a pump round delivers its packets to the
// application as one batch, and Recv hands them out one per call. After
// the peer closes, Recv drains the rest of the batch and then returns
// io.EOF; Close releases a batch Recv has only partly handed out.
func TestRecvHoldsDeliveredBatch(t *testing.T) {
	const k = 8
	start := func(t *testing.T) (*dacapo.Runtime, *wireRecorder) {
		bufpool.DebugReset()
		wire := newWireRecorder()
		spec := dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "window"}}}
		r, err := dacapo.NewRuntime(spec, modules.NewLibrary(), wire)
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]byte, k)
		for i := range data {
			data[i] = dataFrame(i)
		}
		dacapo.QueueUp(r, 0, data)
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		recv(t, r, 0)
		return r, wire
	}
	noLeaks := func(t *testing.T) {
		if leaks := bufpool.Leaks(); len(leaks) != 0 {
			t.Fatalf("%d pooled objects live after Close:\n%s", len(leaks), strings.Join(leaks, "\n"))
		}
	}

	t.Run("peer close", func(t *testing.T) {
		r, wire := start(t)
		wire.Close()
		for i := 1; i < k; i++ {
			recv(t, r, i)
		}
		if msg, err := r.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("Recv after the batch = % x, %v; want io.EOF", msg, err)
		}
		r.Close()
		noLeaks(t)
	})
	t.Run("local close", func(t *testing.T) {
		r, _ := start(t)
		r.Close()
		noLeaks(t)
		if msg, err := r.Recv(); err == nil {
			t.Fatalf("Recv after Close returned % x", msg)
		}
	})
}

// recv reads the next message and checks that it is DATA seq's payload.
func recv(t *testing.T, r *dacapo.Runtime, seq int) {
	t.Helper()
	msg, err := r.Recv()
	if err != nil {
		t.Fatalf("recv %d: %v", seq, err)
	}
	if len(msg) != 1 || msg[0] != byte(seq) {
		t.Fatalf("message %d reads % x", seq, msg)
	}
	transport.PutBuffer(msg)
}
