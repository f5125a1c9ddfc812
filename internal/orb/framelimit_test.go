package orb_test

import (
	"errors"
	"testing"
	"time"

	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/leakcheck"
	"cool/internal/orb"
)

// bulkServant pins one request in flight ("hold"), swallows request bodies
// ("sink") and produces a reply over the frame limit ("bulk").
type bulkServant struct {
	started, release chan struct{}
	oversized        []byte
}

func (s *bulkServant) RepoID() string { return "IDL:test/Bulk:1.0" }

func (s *bulkServant) Invoke(inv *orb.Invocation) (orb.ReplyWriter, error) {
	switch inv.Operation {
	case "hold":
		close(s.started)
		<-s.release
		return func(enc *cdr.Encoder) { enc.WriteString("held") }, nil
	case "bulk":
		return func(enc *cdr.Encoder) { enc.WriteOctetSeq(s.oversized) }, nil
	}
	return nil, nil
}

// TestOversizedFrameFailsOnlyItsInvocation: a request or reply over the
// 64 MiB frame limit must end in a MARSHAL system exception for that
// invocation alone. Written to the wire it makes the peer's reader fail,
// which tears the shared connection down under the second caller whose
// request is still in flight.
func TestOversizedFrameFailsOnlyItsInvocation(t *testing.T) {
	leakcheck.Check(t)
	server := orb.New(orb.WithName("limit-s"))
	t.Cleanup(server.Shutdown)
	if _, err := server.ListenOn("tcp", ""); err != nil {
		t.Fatal(err)
	}
	bs := &bulkServant{
		started:   make(chan struct{}),
		release:   make(chan struct{}),
		oversized: make([]byte, giop.MaxMessageSize+1),
	}
	ref, err := server.RegisterServant(bs)
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.WithName("limit-c"))
	t.Cleanup(client.Shutdown)
	obj := client.Resolve(ref)

	var held string
	holder := make(chan error, 1)
	go func() {
		holder <- obj.Invoke("hold", nil, func(dec *cdr.Decoder) error {
			var err error
			held, err = dec.ReadString()
			return err
		})
	}()
	select {
	case <-bs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("held request never reached the servant")
	}

	// Each oversized call runs under a watchdog: without the bound the
	// client blocks writing 64 MiB at a server that stopped reading.
	wantMarshal := func(what string, call func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			var exc *giop.SystemException
			if !errors.As(err, &exc) || exc.Name() != "MARSHAL" {
				t.Errorf("%s: err = %v, want a MARSHAL system exception", what, err)
			}
		case <-time.After(10 * time.Second):
			close(bs.release) // unwedge the server before failing
			t.Fatalf("%s: invocation hung", what)
		}
	}
	wantMarshal("oversized request", func() error {
		return obj.Invoke("sink", func(enc *cdr.Encoder) { enc.WriteOctetSeq(bs.oversized) }, nil)
	})
	wantMarshal("oversized reply", func() error {
		return obj.Invoke("bulk", nil, func(dec *cdr.Decoder) error {
			_, err := dec.ReadOctetSeq()
			return err
		})
	})

	close(bs.release)
	if err := <-holder; err != nil || held != "held" {
		t.Fatalf("caller sharing the connection: reply %q, err %v", held, err)
	}
	ss := client.Metrics().Snapshot()
	if opened, redials := ss.Counter("transport.conns.opened{scheme=tcp}"), ss.Counter("orb.client.redials"); opened != 1 || redials != 0 {
		t.Errorf("connections opened = %d, redials = %d; want the one shared connection to survive", opened, redials)
	}
}
