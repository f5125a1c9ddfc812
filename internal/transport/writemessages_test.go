package transport_test

import (
	"bytes"
	"testing"

	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/netsim"
	"cool/internal/transport"
)

// dialPair connects a channel pair through m. Da CaPo completes its
// connection set-up in SetQoSParameter, so the (empty) negotiation runs
// before the accept side is collected; it is a no-op elsewhere.
func dialPair(t *testing.T, m transport.Manager) (a, b transport.Channel) {
	t.Helper()
	l, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	type accepted struct {
		ch  transport.Channel
		err error
	}
	ac := make(chan accepted, 1)
	go func() {
		ch, err := l.Accept()
		ac <- accepted{ch, err}
	}()
	a, err = m.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetQoSParameter(nil); err != nil {
		t.Fatal(err)
	}
	r := <-ac
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { a.Close(); r.ch.Close() })
	return a, r.ch
}

// hooked returns m as a Registry with lifecycle hooks hands it out: every
// channel it dials or accepts is wrapped in the hook decorator.
func hooked(t *testing.T, m transport.Manager) transport.Manager {
	t.Helper()
	reg := transport.NewRegistry(m)
	reg.SetHooks(&transport.Hooks{})
	hm, err := reg.Get(m.Scheme())
	if err != nil {
		t.Fatal(err)
	}
	return hm
}

// TestWriteMessagesConformance pins the batched half of the Channel
// contract on every implementation: a batch arrives as exactly the
// messages WriteMessage would have produced, frames are only borrowed, an
// empty batch sends nothing, and a closed channel refuses writes.
func TestWriteMessagesConformance(t *testing.T) {
	pairs := map[string]func(t *testing.T) (a, b transport.Channel){
		"tcp":    func(t *testing.T) (a, b transport.Channel) { return dialPair(t, transport.NewTCPManager()) },
		"inproc": func(t *testing.T) (a, b transport.Channel) { return dialPair(t, transport.NewInprocManager()) },
		"hooked": func(t *testing.T) (a, b transport.Channel) { return dialPair(t, hooked(t, transport.NewTCPManager())) },
		"netsim": func(t *testing.T) (a, b transport.Channel) {
			link := netsim.NewLink(netsim.Loopback())
			t.Cleanup(link.Close)
			return link.Endpoints()
		},
		"dacapo": func(t *testing.T) (a, b transport.Channel) {
			m := dacapo.NewManager(transport.NewInprocManager(), modules.NewLibrary(),
				dacapo.NewResourceManager(0, 0), netsim.LAN().Capability())
			return dialPair(t, m)
		},
	}
	for name, mk := range pairs {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			want := [][]byte{
				[]byte("one"),
				{},
				bytes.Repeat([]byte{0xAB}, 70_000),
				[]byte("four"),
			}
			// readAll collects the next len(want) messages off b while the
			// writer runs, so no transport queue bound can stall the test.
			readAll := func() <-chan [][]byte {
				out := make(chan [][]byte, 1)
				go func() {
					var got [][]byte
					for range want {
						msg, err := b.ReadMessage()
						if err != nil {
							t.Errorf("ReadMessage: %v", err)
							break
						}
						got = append(got, msg)
					}
					out <- got
				}()
				return out
			}
			check := func(how string, got [][]byte) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d messages arrived, want %d", how, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s: message %d has %d octets, want %d (or differs)", how, i, len(got[i]), len(want[i]))
					}
				}
			}

			batch := make([][]byte, len(want))
			for i, f := range want {
				batch[i] = append([]byte(nil), f...)
			}
			rc := readAll()
			if err := a.WriteMessages(batch); err != nil {
				t.Fatal(err)
			}
			for _, f := range batch { // frames were only borrowed
				for i := range f {
					f[i] = 0xFF
				}
			}
			check("WriteMessages", <-rc)

			rc = readAll()
			for _, f := range want {
				if err := a.WriteMessage(f); err != nil {
					t.Fatal(err)
				}
			}
			check("WriteMessage", <-rc)

			// An empty batch puts nothing on the wire: the marker is the
			// very next message.
			if err := a.WriteMessages(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if err := a.WriteMessage([]byte("marker")); err != nil {
				t.Fatal(err)
			}
			if msg, err := b.ReadMessage(); err != nil || string(msg) != "marker" {
				t.Fatalf("after empty batch: %q, %v; want the marker", msg, err)
			}

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.WriteMessages([][]byte{[]byte("late")}); err == nil {
				t.Error("WriteMessages after Close succeeded")
			}
			if err := a.WriteMessage([]byte("late")); err == nil {
				t.Error("WriteMessage after Close succeeded")
			}
		})
	}
}

// batchRecorder notes the size of every batch that reaches the channel it
// wraps.
type batchRecorder struct {
	transport.Channel
	batches []int
}

func (r *batchRecorder) WriteMessages(frames [][]byte) error {
	r.batches = append(r.batches, len(frames))
	return r.Channel.WriteMessages(frames)
}

// recordingManager wraps every dialled channel in a batchRecorder.
type recordingManager struct {
	transport.Manager
	dialled *batchRecorder
}

func (m *recordingManager) Dial(addr string) (transport.Channel, error) {
	ch, err := m.Manager.Dial(addr)
	if err != nil {
		return nil, err
	}
	m.dialled = &batchRecorder{Channel: ch}
	return m.dialled, nil
}

// TestHookedChannelKeepsBatches: the hook decorator must hand a batch to
// the transport as one WriteMessages call, not unroll it into per-frame
// writes — the ORB's flush coalescing depends on it whenever hooks are
// installed, which on an ORB is always.
func TestHookedChannelKeepsBatches(t *testing.T) {
	rec := &recordingManager{Manager: transport.NewInprocManager()}
	a, b := dialPair(t, hooked(t, rec))
	if err := a.WriteMessages([][]byte{[]byte("x"), []byte("y"), []byte("z")}); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := b.ReadMessage(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.dialled.batches; len(got) != 1 || got[0] != 3 {
		t.Fatalf("transport saw batches %v, want one batch of 3", got)
	}
}
