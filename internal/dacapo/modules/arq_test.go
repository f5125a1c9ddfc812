package modules_test

import (
	"strings"
	"sync"
	"testing"

	"cool/internal/bufpool"
	"cool/internal/dacapo"
	"cool/internal/netsim"
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
