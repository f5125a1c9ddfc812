package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cool"
	"cool/internal/cdr"
)

type pinger struct{}

func (pinger) RepoID() string { return "IDL:test/Pinger:1.0" }
func (pinger) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	return func(enc *cdr.Encoder) { enc.WriteString("pong") }, nil
}

// TestRun starts a server ORB with the stats servant, performs one traced
// invocation against it, then runs coolstat against the published reference
// and checks the remote snapshot and trace log come through.
func TestRun(t *testing.T) {
	server := cool.NewORB(cool.WithName("server"))
	defer server.Shutdown()
	cool.TraceLog(server)
	if _, err := server.ListenOn("tcp", "127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	pingRef, err := server.RegisterServant(pinger{})
	if err != nil {
		t.Fatalf("register pinger: %v", err)
	}
	statsRef, err := server.RegisterServant(cool.NewStatsServant(server))
	if err != nil {
		t.Fatalf("register stats: %v", err)
	}

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

	iorFile := filepath.Join(t.TempDir(), "stats.ior")
	if err := os.WriteFile(iorFile, []byte(cool.RefString(statsRef)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run(&out, []string{"-trace", "-ior-file", iorFile}); err != nil {
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
	if err := run(&out, []string{"-slow", "-ior-file", iorFile}); err != nil {
		t.Fatalf("run -slow: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "--- slow calls ---") {
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
	err = run(&out, []string{"-watch", "20ms", "-watch-rounds", "3", "-ior-file", iorFile})
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
		t.Error("run with no reference should fail")
	}
	if err := run(&out, []string{"IOR:nonsense"}); err == nil {
		t.Error("run with a bad reference should fail")
	}
}
