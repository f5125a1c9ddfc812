package orb

import (
	"strings"
	"testing"
	"time"

	"cool/internal/giop"
	"cool/internal/transport"
)

// TestUnexpectedMessageTearsDownWithType is the regression test for the
// readLoop use-after-release: the teardown error must name the offending
// message type, captured before the pooled message is recycled.
func TestUnexpectedMessageTearsDownWithType(t *testing.T) {
	mgr := transport.NewInprocManager()
	ln, err := mgr.Listen("conn-test")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	accepted := make(chan transport.Channel, 1)
	go func() {
		ch, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- ch
	}()

	clientCh, err := mgr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := newClientConn(clientCh, GIOPCodec{}, nil, nil, nil, maxInFlight)
	defer conn.close()

	serverCh := <-accepted
	defer serverCh.Close()

	// A Request flowing server->client is a protocol violation; the read
	// loop must tear the connection down and name the message type.
	frame, err := giop.MarshalRequest(giop.V1_0, false, &giop.RequestHeader{
		RequestID: 1,
		Operation: "bogus",
		ObjectKey: []byte("k"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := serverCh.WriteMessage(frame); err != nil {
		t.Fatal(err)
	}
	giop.ReleaseFrame(frame)

	select {
	case <-conn.done:
	case <-time.After(5 * time.Second):
		t.Fatal("connection did not tear down on unexpected message")
	}
	got := conn.errNow()
	if got == nil || !strings.Contains(got.Error(), "unexpected") || !strings.Contains(got.Error(), "Request") {
		t.Fatalf("teardown error = %v, want unexpected-Request protocol error", got)
	}
}
