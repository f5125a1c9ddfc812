package modules

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"cool/internal/dacapo"
	"cool/internal/qos"
	"cool/internal/transport"
)

const defaultCipherKey = "dacapo-default-key"

// xorOracle is the original per-byte xorcipher loop, kept as the reference
// the block cipher must match octet for octet. An empty key means the
// default key, as in the module.
func xorOracle(key string, data []byte) []byte {
	if key == "" {
		key = defaultCipherKey
	}
	out := append([]byte(nil), data...)
	for i := range out {
		out[i] ^= key[i%len(key)]
	}
	return out
}

// cipherArgs builds the module arguments for key; "" leaves the key out.
func cipherArgs(key string) dacapo.Args {
	if key == "" {
		return dacapo.Args{}
	}
	return dacapo.Args{"key": key}
}

// pattern returns n octets that repeat with no short period.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i/251)
	}
	return b
}

// cipherPacket wraps payload in an arena-owned packet (mutated in place)
// or in a make-backed one, whose payload WritableBytes migrates into the
// arena first, as it does for a borrowed send.
func cipherPacket(payload []byte, owned bool) *dacapo.Packet {
	if owned {
		return dacapo.GetPacket(payload)
	}
	return dacapo.NewPacket(payload)
}

// checkCipher applies a module built for key to payload and checks the
// ciphertext against the oracle, then applies it again and checks that the
// plaintext comes back.
func checkCipher(t *testing.T, key string, payload []byte, owned bool) {
	t.Helper()
	mod, err := newXORCipher(cipherArgs(key))
	if err != nil {
		t.Fatal(err)
	}
	m := mod.(*xorCipher)
	p := cipherPacket(payload, owned)
	defer dacapo.PutPacket(p)
	m.apply(p)
	if want := xorOracle(key, payload); !bytes.Equal(p.Bytes(), want) {
		t.Fatalf("key %d octets, payload %d octets, owned %v: ciphertext differs from the per-byte loop", len(key), len(payload), owned)
	}
	m.apply(p)
	if !bytes.Equal(p.Bytes(), payload) {
		t.Fatalf("key %d octets, payload %d octets, owned %v: applying twice does not restore the input", len(key), len(payload), owned)
	}
}

func TestXORCipherMatchesOracle(t *testing.T) {
	keys := []string{
		"k",
		"k2",
		string(pattern(17)),
		"", // the default key, 18 octets
		string(pattern(255)),
		string(pattern(maxCipherKey)),
	}
	for _, key := range keys {
		mod, err := newXORCipher(cipherArgs(key))
		if err != nil {
			t.Fatal(err)
		}
		block, klen := len(mod.(*xorCipher).block), len(key)
		if key == "" {
			klen = len(defaultCipherKey)
		}
		if block < minCipherBlock || block%klen != 0 {
			t.Errorf("key %d octets: block of %d octets, want whole key repetitions of at least %d", klen, block, minCipherBlock)
		}
		for _, n := range []int{0, 1, block - 1, block, block + 1, 1 << 10, 16 << 10, 70001} {
			for _, owned := range []bool{true, false} {
				checkCipher(t, key, pattern(n), owned)
			}
		}
	}
}

// TestXORCipherAllocBudget pins the two costs the shared block exists for:
// a default-key module is one allocation (the module itself; every bind
// builds four), and ciphering an owned packet allocates nothing.
func TestXORCipherAllocBudget(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := newXORCipher(nil); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("default-key newXORCipher: %v allocations, want <= 1", n)
	}
	mod, err := newXORCipher(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mod.(*xorCipher)
	p := dacapo.GetPacket(pattern(16 << 10))
	defer dacapo.PutPacket(p)
	if n := testing.AllocsPerRun(100, func() { m.apply(p) }); n != 0 {
		t.Errorf("apply on an owned 16 KiB packet: %v allocations, want 0", n)
	}
}

// TestXORCipherBorrowedSendMatchesOracle sends through an inline runtime,
// which hands the module the caller's buffer: the wire must carry the
// oracle's ciphertext and the caller's buffer must stay untouched.
func TestXORCipherBorrowedSendMatchesOracle(t *testing.T) {
	for _, key := range []string{"", "k2", string(pattern(maxCipherKey))} {
		spec := dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "xorcipher", Args: cipherArgs(key)}}}
		a, b := newPipe()
		rt, err := dacapo.NewRuntime(spec, NewLibrary(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 1 << 10, 16 << 10, 70001} {
			payload := pattern(n)
			if err := rt.Send(payload); err != nil {
				t.Fatal(err)
			}
			frame, err := b.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, xorOracle(key, payload)) {
				t.Errorf("key %d octets, payload %d octets: wire differs from the per-byte loop", len(key), n)
			}
			transport.PutBuffer(frame)
			if !bytes.Equal(payload, pattern(n)) {
				t.Errorf("key %d octets, payload %d octets: send ciphered the caller's buffer", len(key), n)
			}
		}
		rt.Close()
	}
}

// pipeEnd is one end of an in-memory message pipe. Each end records and
// closes on its own, so a test can tell which side closed its channel.
type pipeEnd struct {
	send   chan<- []byte
	recv   <-chan []byte
	done   chan struct{}
	once   sync.Once
	writes int
}

// newPipe buffers 16 frames a direction: more than any test here writes
// before the other side reads.
func newPipe() (a, b *pipeEnd) {
	a2b := make(chan []byte, 16)
	b2a := make(chan []byte, 16)
	a = &pipeEnd{send: a2b, recv: b2a, done: make(chan struct{})}
	b = &pipeEnd{send: b2a, recv: a2b, done: make(chan struct{})}
	return a, b
}

func (c *pipeEnd) WriteMessage(p []byte) error {
	if c.isClosed() {
		return transport.ErrClosed
	}
	c.writes++
	c.send <- append(transport.GetBuffer(len(p)), p...)
	return nil
}

func (c *pipeEnd) WriteMessages(frames [][]byte) error {
	for _, p := range frames {
		if err := c.WriteMessage(p); err != nil {
			return err
		}
	}
	return nil
}

func (c *pipeEnd) ReadMessage() ([]byte, error) {
	select {
	case m := <-c.recv:
		return m, nil
	case <-c.done:
		return nil, transport.ErrClosed
	}
}

func (c *pipeEnd) isClosed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func (c *pipeEnd) SetQoSParameter(p qos.Set) (qos.Set, error) { return transport.NoQoS(p) }
func (c *pipeEnd) Close() error                               { c.once.Do(func() { close(c.done) }); return nil }
func (c *pipeEnd) LocalAddr() string                          { return "pipe" }
func (c *pipeEnd) RemoteAddr() string                         { return "pipe" }

// TestAcceptRefusesOversizedCipherKey: the spec a peer proposes is wire
// input, so a key over maxCipherKey octets must be refused by the module
// library and, through it, by Accept — the peer never sizes this side's
// key block.
func TestAcceptRefusesOversizedCipherKey(t *testing.T) {
	long := dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "xorcipher", Args: cipherArgs(strings.Repeat("k", maxCipherKey+1))}}}

	t.Run("accept rejects", func(t *testing.T) {
		// The dialler's library takes any key, so the spec reaches the wire.
		anyKey := dacapo.NewRegistry()
		anyKey.Register("xorcipher", func(dacapo.Args) (dacapo.Module, error) { return &dummy{}, nil })
		a, b := newPipe()
		accepted := make(chan error, 1)
		go func() {
			_, _, err := dacapo.Accept(b, NewLibrary(), nil)
			accepted <- err
		}()
		_, _, cerr := dacapo.Connect(a, anyKey, long, nil)
		aerr := <-accepted
		if !errors.Is(aerr, dacapo.ErrRejected) || !strings.Contains(aerr.Error(), "key") {
			t.Errorf("Accept: %v, want a rejection of the key", aerr)
		}
		if !errors.Is(cerr, dacapo.ErrRejected) || !strings.Contains(cerr.Error(), "key") {
			t.Errorf("Connect: %v, want the peer's rejection of the key", cerr)
		}
		if !a.isClosed() || !b.isClosed() {
			t.Errorf("channels closed: dialler %v, acceptor %v; want both", a.isClosed(), b.isClosed())
		}
	})

	t.Run("connect refuses before writing", func(t *testing.T) {
		if err := long.Validate(NewLibrary()); err == nil {
			t.Fatal("Validate accepted an oversized key")
		}
		a, _ := newPipe()
		if _, _, err := dacapo.Connect(a, NewLibrary(), long, nil); err == nil {
			t.Fatal("Connect accepted an oversized key")
		}
		if a.writes != 0 || !a.isClosed() {
			t.Errorf("writes %d, closed %v; want 0 and closed", a.writes, a.isClosed())
		}
	})
}

// FuzzXORCipher checks the block cipher against the per-byte loop for any
// key and payload, and that keys over maxCipherKey octets are refused. Its
// seed corpus is in testdata/fuzz/FuzzXORCipher.
func FuzzXORCipher(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, data []byte) {
		mod, err := newXORCipher(cipherArgs(string(key)))
		if len(key) > maxCipherKey {
			if err == nil {
				t.Fatalf("%d-octet key accepted", len(key))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		p := dacapo.GetPacket(data)
		defer dacapo.PutPacket(p)
		mod.(*xorCipher).apply(p)
		if !bytes.Equal(p.Bytes(), xorOracle(string(key), data)) {
			t.Fatalf("key %d octets, payload %d octets: ciphertext differs from the per-byte loop", len(key), len(data))
		}
	})
}

func BenchmarkXORCipher16K(b *testing.B) {
	mod, err := newXORCipher(nil)
	if err != nil {
		b.Fatal(err)
	}
	m := mod.(*xorCipher)
	p := dacapo.GetPacket(pattern(16 << 10))
	defer dacapo.PutPacket(p)
	b.SetBytes(int64(p.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.apply(p)
	}
}
