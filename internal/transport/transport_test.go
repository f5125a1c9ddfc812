package transport

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"cool/internal/qos"
)

// managerUnderTest builds a fresh manager per scheme for the shared
// conformance suite.
func managersUnderTest() map[string]func() Manager {
	return map[string]func() Manager{
		"tcp":    func() Manager { return NewTCPManager() },
		"inproc": func() Manager { return NewInprocManager() },
	}
}

func TestChannelConformance(t *testing.T) {
	for scheme, mk := range managersUnderTest() {
		t.Run(scheme, func(t *testing.T) {
			m := mk()
			if m.Scheme() != scheme {
				t.Fatalf("Scheme() = %q", m.Scheme())
			}
			l, err := m.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			type acceptResult struct {
				ch  Channel
				err error
			}
			acceptCh := make(chan acceptResult, 1)
			go func() {
				ch, err := l.Accept()
				acceptCh <- acceptResult{ch, err}
			}()

			client, err := m.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			ar := <-acceptCh
			if ar.err != nil {
				t.Fatal(ar.err)
			}
			server := ar.ch
			defer server.Close()

			t.Run("round trip", func(t *testing.T) {
				msgs := [][]byte{
					[]byte("hello"),
					{},
					bytes.Repeat([]byte{0xAB}, 100_000),
				}
				for _, msg := range msgs {
					if err := client.WriteMessage(msg); err != nil {
						t.Fatal(err)
					}
					got, err := server.ReadMessage()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, msg) {
						t.Fatalf("len %d -> len %d", len(msg), len(got))
					}
					// And the reverse direction.
					if err := server.WriteMessage(msg); err != nil {
						t.Fatal(err)
					}
					if got, err = client.ReadMessage(); err != nil || !bytes.Equal(got, msg) {
						t.Fatalf("reverse: %v, len %d", err, len(got))
					}
				}
			})

			t.Run("write buffer reuse safe", func(t *testing.T) {
				buf := []byte("first")
				if err := client.WriteMessage(buf); err != nil {
					t.Fatal(err)
				}
				copy(buf, "XXXXX") // caller reuses its buffer immediately
				got, err := server.ReadMessage()
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != "first" {
					t.Fatalf("message corrupted by buffer reuse: %q", got)
				}
			})

			t.Run("no QoS support", func(t *testing.T) {
				if granted, err := client.SetQoSParameter(nil); err != nil || granted != nil {
					t.Fatalf("empty set: %v, %v", granted, err)
				}
				set := qos.Set{{Type: qos.Throughput, Request: 1, Max: qos.NoLimit}}
				if _, err := client.SetQoSParameter(set); !errors.Is(err, ErrQoSNotSupported) {
					t.Fatalf("err = %v, want ErrQoSNotSupported", err)
				}
			})

			t.Run("addrs non-empty", func(t *testing.T) {
				if client.LocalAddr() == "" || client.RemoteAddr() == "" {
					t.Fatal("empty addresses")
				}
			})

			t.Run("EOF after close", func(t *testing.T) {
				if err := client.Close(); err != nil {
					t.Fatal(err)
				}
				deadline := time.After(2 * time.Second)
				done := make(chan error, 1)
				go func() {
					for {
						if _, err := server.ReadMessage(); err != nil {
							done <- err
							return
						}
					}
				}()
				select {
				case err := <-done:
					if err == nil {
						t.Fatal("expected error after peer close")
					}
				case <-deadline:
					t.Fatal("ReadMessage did not observe peer close")
				}
			})
		})
	}
}

func TestConcurrentWriters(t *testing.T) {
	for scheme, mk := range managersUnderTest() {
		t.Run(scheme, func(t *testing.T) {
			m := mk()
			l, err := m.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				server, err := l.Accept()
				if err != nil {
					return
				}
				for {
					msg, err := server.ReadMessage()
					if err != nil {
						return
					}
					if err := server.WriteMessage(msg); err != nil {
						return
					}
				}
			}()
			client, err := m.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			const writers, perWriter = 8, 50
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					msg := bytes.Repeat([]byte{byte(w)}, 64)
					for i := 0; i < perWriter; i++ {
						if err := client.WriteMessage(msg); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}(w)
			}
			// One reader drains all echoes and checks frame integrity.
			for i := 0; i < writers*perWriter; i++ {
				msg, err := client.ReadMessage()
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if len(msg) != 64 {
					t.Fatalf("frame %d corrupted: len %d", i, len(msg))
				}
				for _, b := range msg {
					if b != msg[0] {
						t.Fatalf("interleaved frame: % x", msg[:8])
					}
				}
			}
			wg.Wait()
		})
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry(NewTCPManager(), NewInprocManager())
	if _, err := r.Get("tcp"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("inproc"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("bogus"); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("err = %v", err)
	}
	var zero Registry
	zero.Register(NewTCPManager())
	if _, err := zero.Get("tcp"); err != nil {
		t.Fatal("Register on zero value failed")
	}
}

func TestInprocDialUnbound(t *testing.T) {
	m := NewInprocManager()
	if _, err := m.Dial("nowhere"); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestInprocDuplicateBind(t *testing.T) {
	m := NewInprocManager()
	l, err := m.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Listen("svc"); err == nil {
		t.Fatal("duplicate bind should fail")
	}
	l.Close()
	// After close the name is free again.
	if _, err := m.Listen("svc"); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestInprocListenerClose(t *testing.T) {
	m := NewInprocManager()
	l, err := m.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not return after Close")
	}
	if _, err := m.Dial("svc"); err == nil {
		t.Fatal("dial after close should fail")
	}
}

func TestInprocGracefulDrain(t *testing.T) {
	m := NewInprocManager()
	l, _ := m.Listen("svc")
	defer l.Close()
	go func() {
		server, err := l.Accept()
		if err != nil {
			return
		}
		server.WriteMessage([]byte("reply"))
		server.Close()
	}()
	client, err := m.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	// Give the server goroutine time to write and close.
	time.Sleep(50 * time.Millisecond)
	got, err := client.ReadMessage()
	if err != nil {
		t.Fatalf("queued message lost on close: %v", err)
	}
	if string(got) != "reply" {
		t.Fatalf("got %q", got)
	}
	if _, err := client.ReadMessage(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestTCPRejectsHugeFrame(t *testing.T) {
	m := NewTCPManager()
	l, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		server, err := l.Accept()
		if err != nil {
			return
		}
		// Forge a frame header claiming 1 GiB.
		server.(*tcpChannel).conn.Write([]byte{0x40, 0, 0, 0})
	}()
	client, err := m.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.ReadMessage(); err == nil {
		t.Fatal("expected frame-size error")
	}
}

func BenchmarkChannelRoundTrip(b *testing.B) {
	for scheme, mk := range managersUnderTest() {
		b.Run(scheme, func(b *testing.B) {
			m := mk()
			l, err := m.Listen("")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				server, err := l.Accept()
				if err != nil {
					return
				}
				for {
					msg, err := server.ReadMessage()
					if err != nil {
						return
					}
					if server.WriteMessage(msg) != nil {
						return
					}
				}
			}()
			client, err := m.Dial(l.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			msg := bytes.Repeat([]byte{1}, 1024)
			b.SetBytes(int64(len(msg)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.WriteMessage(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := client.ReadMessage(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
