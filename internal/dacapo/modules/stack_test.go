package modules_test

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/netsim"
	"cool/internal/qos"
	"cool/internal/transport"
)

// tapChannel is an in-memory transport pair whose a->b direction passes
// through a transform hook, letting tests corrupt, drop or duplicate wire
// frames deterministically.
type tapChannel struct {
	send   chan<- []byte
	recv   <-chan []byte
	hook   func([]byte) [][]byte // nil = identity
	closed chan struct{}
	once   *sync.Once
}

func newHookedPair(hook func([]byte) [][]byte) (a, b transport.Channel) {
	a2b := make(chan []byte, 1024)
	b2a := make(chan []byte, 1024)
	closed := make(chan struct{})
	once := &sync.Once{}
	return &tapChannel{send: a2b, recv: b2a, hook: hook, closed: closed, once: once},
		&tapChannel{send: b2a, recv: a2b, hook: nil, closed: closed, once: once}
}

func (c *tapChannel) WriteMessage(p []byte) error {
	frames := [][]byte{append([]byte(nil), p...)}
	if c.hook != nil {
		frames = c.hook(frames[0])
	}
	for _, f := range frames {
		select {
		case c.send <- f:
		case <-c.closed:
			return transport.ErrClosed
		}
	}
	return nil
}

func (c *tapChannel) WriteMessages(frames [][]byte) error {
	for _, p := range frames {
		if err := c.WriteMessage(p); err != nil {
			return err
		}
	}
	return nil
}

func (c *tapChannel) ReadMessage() ([]byte, error) {
	select {
	case m := <-c.recv:
		return m, nil
	case <-c.closed:
		return nil, transport.ErrClosed
	}
}

func (c *tapChannel) Buffered() bool                             { return false }
func (c *tapChannel) SetQoSParameter(p qos.Set) (qos.Set, error) { return transport.NoQoS(p) }
func (c *tapChannel) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}
func (c *tapChannel) LocalAddr() string  { return "hook:a" }
func (c *tapChannel) RemoteAddr() string { return "hook:b" }

func startStacks(t testing.TB, spec dacapo.Spec, a, b transport.Channel) (*dacapo.Runtime, *dacapo.Runtime) {
	t.Helper()
	reg := modules.NewLibrary()
	ra, err := dacapo.NewRuntime(spec, reg, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := dacapo.NewRuntime(spec, reg, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Close(); rb.Close() })
	return ra, rb
}

func spec(names ...string) dacapo.Spec {
	var s dacapo.Spec
	for _, n := range names {
		s.Modules = append(s.Modules, dacapo.ModuleSpec{Name: n})
	}
	return s
}

func sendRecv(t *testing.T, ra, rb *dacapo.Runtime, msgs [][]byte) {
	t.Helper()
	go func() {
		for _, m := range msgs {
			if err := ra.Send(m); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	for i, want := range msgs {
		got, err := rb.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: got %d octets, want %d (%q vs %q)", i, len(got), len(want), truncate(got), truncate(want))
		}
	}
}

func truncate(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}

var testMessages = [][]byte{
	[]byte("alpha"),
	{},
	bytes.Repeat([]byte{0x5A}, 3000),
	[]byte{0, 1, 2, 3, 255, 254},
}

// TestStackTransparency: every single-module stack must be transparent
// end-to-end (headers added and stripped exactly).
func TestStackTransparency(t *testing.T) {
	stacks := [][]string{
		{"dummy"},
		{"parity"},
		{"crc16"},
		{"crc32"},
		{"seqnum"},
		{"xorcipher"},
		{"rle"},
		{"fragment"},
		{"irq"},
		{"window"},
		{"seqnum", "crc32"},
		{"xorcipher", "rle", "crc32"},
		{"window", "crc32"},
		{"rle", "fragment", "crc16"},
	}
	for _, names := range stacks {
		t.Run(dacapo.Spec{}.String()+joinNames(names), func(t *testing.T) {
			a, b := newHookedPair(nil)
			ra, rb := startStacks(t, spec(names...), a, b)
			sendRecv(t, ra, rb, testMessages)
		})
	}
}

func joinNames(names []string) string {
	out := ""
	for _, n := range names {
		out += "/" + n
	}
	return out
}

func TestChecksumModulesDropCorruptedFrames(t *testing.T) {
	for _, mech := range []string{"parity", "crc16", "crc32"} {
		t.Run(mech, func(t *testing.T) {
			var count int
			// Corrupt every 2nd frame's first payload octet.
			hook := func(f []byte) [][]byte {
				count++
				if count%2 == 0 && len(f) > 0 {
					f[0] ^= 0xFF
				}
				return [][]byte{f}
			}
			a, b := newHookedPair(hook)
			ra, rb := startStacks(t, spec(mech), a, b)
			go func() {
				for i := 0; i < 10; i++ {
					ra.Send([]byte{byte(i), 100})
				}
			}()
			// Only the odd frames survive.
			var got []byte
			for i := 0; i < 5; i++ {
				m, err := rb.Recv()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, m[0])
			}
			for i, v := range got {
				if int(v)%2 != 0 {
					t.Fatalf("delivered frame %d has odd index %d (corrupted frame leaked)", i, v)
				}
			}
			stats := rb.Stats()
			if stats[0].Drops == 0 {
				t.Fatal("no drops recorded")
			}
		})
	}
}

func TestSeqNumSuppressesDuplicates(t *testing.T) {
	// Duplicate every frame on the wire.
	hook := func(f []byte) [][]byte {
		dup := append([]byte(nil), f...)
		return [][]byte{f, dup}
	}
	a, b := newHookedPair(hook)
	ra, rb := startStacks(t, spec("seqnum"), a, b)
	go func() {
		for i := 0; i < 20; i++ {
			ra.Send([]byte{byte(i)})
		}
	}()
	for i := 0; i < 20; i++ {
		got, err := rb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("got %d, want %d (duplicate leaked)", got[0], i)
		}
	}
}

func TestXORCipherHidesPlaintextOnWire(t *testing.T) {
	secret := []byte("attack at dawn, attack at dawn!!")
	var wire [][]byte
	var mu sync.Mutex
	hook := func(f []byte) [][]byte {
		mu.Lock()
		wire = append(wire, append([]byte(nil), f...))
		mu.Unlock()
		return [][]byte{f}
	}
	a, b := newHookedPair(hook)
	ra, rb := startStacks(t, spec("xorcipher"), a, b)
	if err := ra.Send(secret); err != nil {
		t.Fatal(err)
	}
	got, err := rb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("decryption failed")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, f := range wire {
		if bytes.Contains(f, []byte("attack")) {
			t.Fatal("plaintext visible on the wire")
		}
	}
}

func TestFragmentReassemblesOverMTULink(t *testing.T) {
	link := netsim.NewLink(netsim.Params{MTU: 256})
	t.Cleanup(link.Close)
	a, b := link.Endpoints()
	fragSpec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "fragment", Args: dacapo.Args{"mtu": "256"}},
	}}
	ra, rb := startStacks(t, fragSpec, a, b)
	big := make([]byte, 100_000)
	for i := range big {
		big[i] = byte(i * 13)
	}
	sendRecv(t, ra, rb, [][]byte{big, {}, []byte("small")})
}

func TestFragmentRejectsTinyMTU(t *testing.T) {
	reg := modules.NewLibrary()
	if _, err := reg.Build("fragment", dacapo.Args{"mtu": "8"}); err == nil {
		t.Fatal("mtu <= header size must be rejected")
	}
}

func TestIRQRecoversFromLoss(t *testing.T) {
	var count int
	// Drop every 3rd frame (data and ACKs alike).
	hook := func(f []byte) [][]byte {
		count++
		if count%3 == 0 {
			return nil
		}
		return [][]byte{f}
	}
	a, b := newHookedPair(hook)
	irqSpec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "irq", Args: dacapo.Args{"rto": "10ms"}},
	}}
	ra, rb := startStacks(t, irqSpec, a, b)
	msgs := make([][]byte, 30)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i * 3)}
	}
	sendRecv(t, ra, rb, msgs)
}

func TestWindowRecoversFromLossBothDirections(t *testing.T) {
	var mu sync.Mutex
	count := 0
	hook := func(f []byte) [][]byte {
		mu.Lock()
		count++
		drop := count%5 == 0
		mu.Unlock()
		if drop {
			return nil
		}
		return [][]byte{f}
	}
	a, b := newHookedPair(hook)
	winSpec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "window", Args: dacapo.Args{"window": "8", "rto": "10ms"}},
	}}
	ra, rb := startStacks(t, winSpec, a, b)
	msgs := make([][]byte, 100)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i >> 4)}
	}
	sendRecv(t, ra, rb, msgs)
}

func TestWindowGivesUpAfterMaxRetries(t *testing.T) {
	// Black hole: everything from a to b is dropped.
	hook := func(f []byte) [][]byte { return nil }
	a, b := newHookedPair(hook)
	winSpec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "window", Args: dacapo.Args{"rto": "5ms", "retries": "3"}},
	}}
	ra, _ := startStacks(t, winSpec, a, b)
	if err := ra.Send([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for ra.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("runtime did not fail after retry exhaustion")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestRateLimitShapesThroughput(t *testing.T) {
	a, b := newHookedPair(nil)
	// 8 Mbit/s = 1 MiB/s (approx); burst 4 KiB.
	rlSpec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "ratelimit", Args: dacapo.Args{"kbps": "8000", "burst": "4096"}},
	}}
	ra, rb := startStacks(t, rlSpec, a, b)
	const n, size = 100, 4096 // 400 KiB total at 1000 KiB/s ~ 0.4 s
	start := time.Now()
	go func() {
		msg := make([]byte, size)
		for i := 0; i < n; i++ {
			ra.Send(msg)
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := rb.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	ideal := time.Duration(float64(n*size) / (8000.0 * 125) * float64(time.Second))
	if elapsed < ideal/2 {
		t.Fatalf("elapsed %v far below shaped time %v", elapsed, ideal)
	}
	if elapsed > ideal*3 {
		t.Fatalf("elapsed %v far above shaped time %v", elapsed, ideal)
	}
}

func TestRateLimitRequiresRate(t *testing.T) {
	reg := modules.NewLibrary()
	if _, err := reg.Build("ratelimit", nil); err == nil {
		t.Fatal("ratelimit without kbps must fail")
	}
}

func TestLibraryNames(t *testing.T) {
	reg := modules.NewLibrary()
	for _, want := range []string{"dummy", "parity", "crc16", "crc32", "seqnum", "xorcipher", "rle", "fragment", "irq", "window", "ratelimit"} {
		if !reg.Has(want) {
			t.Errorf("library missing %q", want)
		}
	}
	if len(reg.Names()) != 11 {
		t.Errorf("names = %v", reg.Names())
	}
}

// Property: arbitrary payloads survive a representative composite stack.
func TestQuickCompositeStackTransparency(t *testing.T) {
	a, b := newHookedPair(nil)
	composite := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "xorcipher"},
		{Name: "rle"},
		{Name: "seqnum"},
		{Name: "fragment", Args: dacapo.Args{"mtu": "512"}},
		{Name: "crc32"},
	}}
	ra, rb := startStacks(t, composite, a, b)
	f := func(payload []byte) bool {
		if err := ra.Send(payload); err != nil {
			return false
		}
		got, err := rb.Recv()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
