package modules_test

import (
	"strings"
	"sync"
	"testing"

	"cool/internal/bufpool"
	"cool/internal/dacapo"
	"cool/internal/netsim"
	"cool/internal/transport"
)

// TestARQReleasesRetainedPacketsOnClose: irq and window keep a clone of
// every unacknowledged packet for retransmission (their two
// //coollint:owner stores). Closing a stack mid-window must hand every
// one of them back. Over a lossy link the sender holds a full window when
// the receiver stops reading; under -tags pooldebug the shared ledger
// then lists nothing once both stacks are closed.
func TestARQReleasesRetainedPacketsOnClose(t *testing.T) {
	for _, mod := range []dacapo.ModuleSpec{
		{Name: "irq", Args: dacapo.Args{"rto": "1ms", "retries": "1000"}},
		{Name: "window", Args: dacapo.Args{"window": "8", "rto": "1ms", "retries": "1000"}},
	} {
		t.Run(mod.Name, func(t *testing.T) {
			bufpool.DebugReset()
			link := netsim.NewLink(netsim.Params{LossRate: 0.3, Seed: 7})
			t.Cleanup(link.Close)
			a, b := link.Endpoints()
			ra, rb := startStacks(t, dacapo.Spec{Modules: []dacapo.ModuleSpec{mod}}, a, b)

			// More messages than the receive queue and the window absorb:
			// the sender is still retransmitting when the stacks close.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 256; i++ {
					if ra.Send([]byte{byte(i), byte(i >> 8)}) != nil {
						return // closed mid-send
					}
				}
			}()
			for i := 0; i < 4; i++ {
				msg, err := rb.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				bufpool.Put(msg)
			}
			if bufpool.DebugEnabled && !ledgerHolds(bufpool.Leaks(), "*dacapo.Packet") {
				t.Fatal("no packet outstanding before close: the test closes nothing mid-window")
			}
			ra.Close()
			rb.Close()
			wg.Wait()
			if leaks := bufpool.Leaks(); len(leaks) != 0 {
				t.Fatalf("%d pooled objects outlive the closed %s stacks:\n%s", len(leaks), mod.Name, strings.Join(leaks, "\n"))
			}
		})
	}
}

func ledgerHolds(leaks []string, what string) bool {
	for _, l := range leaks {
		if strings.Contains(l, what) {
			return true
		}
	}
	return false
}

// TestWindowFloodAllocBudget: a 1 KiB flood through window(16)+crc32 over
// the in-process transport allocates nothing per message once warm. A
// retransmission timer re-armed on every ACK costs several allocations
// per message.
func TestWindowFloodAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	if bufpool.DebugEnabled {
		t.Skip("the pooldebug ledger allocates per acquisition")
	}
	mgr := transport.NewInprocManager()
	l, err := mgr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	a, err := mgr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := startStacks(t, dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "window", Args: dacapo.Args{"window": "16"}}, {Name: "crc32"},
	}}, a, b)
	// A run stays within the receive queue: it sends before it receives.
	const perRun = 64
	msg := make([]byte, 1<<10)
	flood := func() {
		for i := 0; i < perRun; i++ {
			if err := ra.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < perRun; i++ {
			got, err := rb.Recv()
			if err != nil {
				t.Fatal(err)
			}
			transport.PutBuffer(got)
		}
	}
	for i := 0; i < 10; i++ {
		flood() // warm the pools, the spill buffer and the window's map
	}
	if perMsg := testing.AllocsPerRun(50, flood) / perRun; perMsg >= 1 {
		t.Fatalf("%.2f allocations per message in a steady window flood, want < 1", perMsg)
	}
}
