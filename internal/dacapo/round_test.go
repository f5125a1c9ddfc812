package dacapo_test

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

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
