package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cool"
	"cool/internal/cdr"
	"cool/internal/giop"
)

type pinger struct{}

func (pinger) RepoID() string { return "IDL:test/Pinger:1.0" }
func (pinger) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	return func(enc *cdr.Encoder) { enc.WriteString("pong") }, nil
}

// TestRun starts a server ORB with the ops endpoint, performs one traced
// invocation against it, then runs coolstat against the ops address and
// checks the remote snapshot and trace log come through.
func TestRun(t *testing.T) {
	server := cool.NewORB(cool.WithName("server"))
	defer server.Shutdown()
	if _, err := server.ListenOn("tcp", "127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	pingRef, err := server.RegisterServant(pinger{})
	if err != nil {
		t.Fatalf("register pinger: %v", err)
	}
	ops, err := cool.ServeOps("127.0.0.1:0", server)
	if err != nil {
		t.Fatalf("ServeOps: %v", err)
	}
	defer ops.Close()

	// Generate some server-side metrics and trace events first.
	client := cool.NewORB(cool.WithName("client"))
	defer client.Shutdown()
	obj, err := client.ResolveString(cool.RefString(pingRef))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if err := obj.Invoke("ping", nil, nil); err != nil {
		t.Fatalf("ping: %v", err)
	}

	var out strings.Builder
	if err := run(&out, []string{"-trace", ops.Addr()}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"orb.server.requests{op=ping} 1",
		"giop.in.msgs{type=Request}",
		"--- trace ---",
		"server:ping",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\n%s", want, got)
		}
	}

	// -slow: the remote slow-call log section renders (empty here).
	out.Reset()
	if err := run(&out, []string{"-slow", ops.Addr()}); err != nil {
		t.Fatalf("run -slow: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "--- slow calls ---\n(no slow calls recorded)") {
		t.Errorf("-slow output missing section:\n%s", got)
	}

	// -watch: the live delta view; calls issued between two polls must
	// appear as non-zero rates and percentiles. The pinger runs until the
	// watch is over, so every interval sees traffic however the polls land.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := obj.Invoke("ping", nil, nil); err != nil {
				t.Errorf("watch ping: %v", err)
				return
			}
		}
	}()
	out.Reset()
	err = run(&out, []string{"-watch", "20ms", "-watch-rounds", "3", ops.Addr()})
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("run -watch: %v", err)
	}
	got = out.String()
	for _, want := range []string{
		"orb.server.requests{op=ping}",
		"rate=",
		"p99=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-watch output missing %q\n%s", want, got)
		}
	}

	if err := run(&out, []string{}); err == nil {
		t.Error("run with no address should fail")
	}
	if err := run(&out, []string{"IOR:nonsense"}); err == nil {
		t.Error("run with a bad address should fail")
	}
	// An address nothing listens on any more.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	if err := run(&out, []string{closed}); err == nil {
		t.Error("run against a closed port should fail")
	}
}

// TestRunRefusesBadResponses: what the endpoint sends is outside input. An
// error status, a body over maxBody and malformed JSON each end the run
// with an error that says what went wrong.
func TestRunRefusesBadResponses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			fmt.Fprint(w, `{"Counters":[{"Name":"x","Value":`)
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, maxBody+1)) //nolint:errcheck // the client stops reading at the cap
	}))
	defer big.Close()

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"status", []string{srv.Listener.Addr().String()}, "500 Internal Server Error"},
		{"oversize", []string{big.Listener.Addr().String()}, "exceeds"},
		{"malformed json", []string{"-watch", "1ms", "-watch-rounds", "1", srv.Listener.Addr().String()}, "decode snapshot"},
	} {
		var out strings.Builder
		err := run(&out, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// blocker holds "block" until release is closed; every other operation
// returns at once.
type blocker struct {
	entered chan struct{} // one send: the blocked request is in the servant
	release chan struct{}
}

func (*blocker) RepoID() string { return "IDL:test/Blocker:1.0" }
func (b *blocker) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	if inv.Operation == "block" {
		b.entered <- struct{}{}
		<-b.release
	}
	return nil, nil
}

// TestCoolstatDuringDrain: the ops endpoint stays readable while the ORB it
// reports on drains with a request in flight, and after Shutdown closed
// that ORB's listeners. A CORBA object served by the same ORB is refused
// TRANSIENT in the first state and unreachable in the second.
func TestCoolstatDuringDrain(t *testing.T) {
	server := cool.NewORB(cool.WithName("drain-server"), cool.WithDrainTimeout(10*time.Second))
	defer server.Shutdown()
	if _, err := server.ListenOn("tcp", "127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	b := &blocker{entered: make(chan struct{}, 1), release: make(chan struct{})}
	ref, err := server.RegisterServant(b)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ops, err := cool.ServeOps("127.0.0.1:0", server)
	if err != nil {
		t.Fatalf("ServeOps: %v", err)
	}
	defer ops.Close()

	client := cool.NewORB(cool.WithName("drain-client"))
	defer client.Shutdown()
	obj, err := client.ResolveString(cool.RefString(ref))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- obj.Invoke("block", nil, nil) }()
	select {
	case <-b.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked request never reached the servant")
	}

	shut := make(chan struct{})
	go func() {
		server.Shutdown()
		close(shut)
	}()
	released := false
	defer func() {
		if !released {
			close(b.release)
			<-shut
		}
	}()

	// The drain has begun once the live connection refuses new requests.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := obj.Invoke("probe", nil, nil)
		var se *giop.SystemException
		if errors.As(err, &se) && se.ID == giop.RepoIDTransient && se.Minor == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never refused a probe; last result: %v", err)
		}
	}

	stat := func() string {
		t.Helper()
		var out strings.Builder
		if err := run(&out, []string{ops.Addr()}); err != nil {
			t.Fatalf("coolstat: %v", err)
		}
		return out.String()
	}
	draining := stat()
	for _, want := range []string{"orb.server.drain_completed 0\n", "orb.server.requests{op=block} 1\n"} {
		if !strings.Contains(draining, want) {
			t.Errorf("during drain: output missing %q\n%s", want, draining)
		}
	}

	close(b.release)
	released = true
	if err := <-blocked; err != nil {
		t.Errorf("drained request: %v", err)
	}
	<-shut
	if after := stat(); !strings.Contains(after, "orb.server.drain_completed 1\n") {
		t.Errorf("after Shutdown: output missing drain_completed 1\n%s", after)
	}
}
