package modules_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"cool/internal/bufpool"
	"cool/internal/dacapo"
)

// forgeOnce returns a hook that rewrites the first wire frame it sees with
// mutate and passes everything else through untouched.
func forgeOnce(mutate func([]byte) []byte) func([]byte) [][]byte {
	var mu sync.Mutex
	done := false
	return func(f []byte) [][]byte {
		mu.Lock()
		defer mu.Unlock()
		if done {
			return [][]byte{f}
		}
		done = true
		return [][]byte{mutate(append([]byte(nil), f...))}
	}
}

// moduleDrops returns the drop counter of the named module in rt.
func moduleDrops(t *testing.T, rt *dacapo.Runtime, name string) uint64 {
	t.Helper()
	for _, s := range rt.Stats() {
		if s.Name == name {
			return s.Drops
		}
	}
	t.Fatalf("module %q not in stack", name)
	return 0
}

// TestFragmentOversizedSendReleasesPacket: a send needing more than
// maxFragCount fragments fails, and the fragment module, which owns the
// packet it was handed, releases it on that error path too. Under -tags
// pooldebug the shared ledger would otherwise still list the header.
func TestFragmentOversizedSendReleasesPacket(t *testing.T) {
	bufpool.DebugReset()
	a, b := newHookedPair(nil)
	ra, _ := startStacks(t, dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "fragment", Args: dacapo.Args{"mtu": "9"}}, // one payload octet per fragment
	}}, a, b)
	if err := ra.Send(make([]byte, 1<<14+1)); err == nil {
		t.Fatal("send needing more than maxFragCount fragments succeeded")
	}
	for _, l := range bufpool.Leaks() {
		if strings.Contains(l, "*dacapo.Packet") {
			t.Fatalf("fragment error path kept its packet:\n%s", l)
		}
	}
}

// TestFragmentRejectsOversizedCount: a forged fragment header claiming a
// count beyond maxFragCount must be dropped outright, not used to size the
// reassembly buffer — the wire-side analogue of the sender-side limit in
// HandleDown.
func TestFragmentRejectsOversizedCount(t *testing.T) {
	hook := forgeOnce(func(f []byte) []byte {
		if len(f) < 8 {
			t.Errorf("fragment frame shorter than its header: %d octets", len(f))
			return f
		}
		binary.BigEndian.PutUint16(f[6:8], 0xFFFF) // count > maxFragCount
		return f
	})
	a, b := newHookedPair(hook)
	fragSpec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "fragment", Args: dacapo.Args{"mtu": "256"}},
	}}
	ra, rb := startStacks(t, fragSpec, a, b)

	// The inline receive path is caller-driven: a Recv must be in flight
	// to pull the forged frame through the stack. It blocks past the drop
	// until the healthy follow-up message arrives.
	type recvResult struct {
		msg []byte
		err error
	}
	delivered := make(chan recvResult, 1)
	go func() {
		msg, err := rb.Recv()
		delivered <- recvResult{msg, err}
	}()

	if err := ra.Send([]byte("poisoned")); err != nil {
		t.Fatal(err)
	}
	// The receiver must drop the forged frame rather than stash it into a
	// 64K-part reassembly group.
	deadline := time.Now().Add(2 * time.Second)
	for moduleDrops(t, rb, "fragment") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forged oversized-count fragment was not dropped")
		}
		time.Sleep(time.Millisecond)
	}

	// The stack must still be healthy for well-formed traffic.
	want := []byte("after the attack")
	if err := ra.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-delivered:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if !bytes.Equal(res.msg, want) {
			t.Fatalf("post-attack message corrupted: %q", res.msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-attack message never delivered")
	}
}
