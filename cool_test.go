package cool_test

import (
	"strings"
	"testing"

	cool "cool"
	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/transport"
)

// facadeServant is a trivial servant used by the facade tests.
type facadeServant struct{}

func (facadeServant) RepoID() string { return "IDL:facade/Test:1.0" }

func (facadeServant) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	switch inv.Operation {
	case "ping":
		return func(enc *cdr.Encoder) { enc.WriteString("pong") }, nil
	default:
		return nil, giop.BadOperation()
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	inner := transport.NewInprocManager()
	server := cool.NewORB(cool.WithName("facade-server"), cool.WithTransport(inner))
	client := cool.NewORB(cool.WithName("facade-client"), cool.WithTransport(inner))
	defer client.Shutdown()
	defer server.Shutdown()
	cool.EnableDaCaPo(server, cool.DaCaPoConfig{Inner: inner})
	cool.EnableDaCaPo(client, cool.DaCaPoConfig{Inner: inner})

	if _, err := server.ListenOn("dacapo", ""); err != nil {
		t.Fatal(err)
	}
	ref, err := server.RegisterServant(facadeServant{})
	if err != nil {
		t.Fatal(err)
	}

	// Round trip through the stringified reference.
	obj, err := client.ResolveString(cool.RefString(ref))
	if err != nil {
		t.Fatal(err)
	}
	var out string
	err = obj.Invoke("ping", nil, func(dec *cdr.Decoder) error {
		var err error
		out, err = dec.ReadString()
		return err
	})
	if err != nil || out != "pong" {
		t.Fatalf("ping = %q, %v", out, err)
	}
}

func TestQoSHelpers(t *testing.T) {
	set := cool.QoS(
		cool.MinThroughput(5000, 1000),
		cool.MaxLatency(2000, 10_000),
		cool.MaxJitter(500, 1000),
		cool.Encrypted(),
	)
	if len(set) != 4 {
		t.Fatalf("set = %v", set)
	}
	if p, ok := set.Get(cool.Throughput); !ok || p.Request != 5000 || p.Min != 1000 {
		t.Fatalf("throughput = %+v", p)
	}
	if p, ok := set.Get(cool.Latency); !ok || p.Max != 10_000 {
		t.Fatalf("latency = %+v", p)
	}
	if p, ok := set.Get(cool.Confidentiality); !ok || p.Min != 1 {
		t.Fatalf("confidentiality = %+v", p)
	}
	rel := cool.Reliable()
	if len(rel) != 2 {
		t.Fatalf("Reliable = %v", rel)
	}
}

func TestQoSPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate dimension")
		}
	}()
	cool.QoS(cool.MinThroughput(1, 0), cool.MinThroughput(2, 0))
}

func TestParseRefErrors(t *testing.T) {
	if _, err := cool.ParseRef("garbage"); err == nil {
		t.Fatal("expected parse error")
	}
	ref := cool.Ref{TypeID: "IDL:x/Y:1.0"}
	if s := cool.RefString(ref); !strings.HasPrefix(s, "IOR:") {
		t.Fatalf("RefString = %q", s)
	}
}

// TestCOOLProtocolEndToEnd exercises the generic message protocol layer's
// second protocol: the proprietary COOL framing, selected per endpoint and
// carried in the IOR profile.
func TestCOOLProtocolEndToEnd(t *testing.T) {
	inner := transport.NewInprocManager()
	server := cool.NewORB(cool.WithName("cp-server"), cool.WithTransport(inner))
	client := cool.NewORB(cool.WithName("cp-client"), cool.WithTransport(inner))
	defer client.Shutdown()
	defer server.Shutdown()
	cool.EnableDaCaPo(server, cool.DaCaPoConfig{Inner: inner})
	cool.EnableDaCaPo(client, cool.DaCaPoConfig{Inner: inner})

	// One endpoint speaks the COOL protocol over the QoS transport.
	if _, err := server.ListenOnProtocol("dacapo", "", "cool"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.RegisterServant(facadeServant{}, cool.WithCapability(cool.Capability{
		cool.Throughput: {Best: 100_000, Supported: true},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Profiles[0].Protocol != "cool" {
		t.Fatalf("profile protocol = %q", ref.Profiles[0].Protocol)
	}

	// Round-trip through the stringified reference preserves the protocol.
	obj, err := client.ResolveString(cool.RefString(ref))
	if err != nil {
		t.Fatal(err)
	}
	ping := func() string {
		var out string
		if err := obj.Invoke("ping", nil, func(dec *cdr.Decoder) error {
			var err error
			out, err = dec.ReadString()
			return err
		}); err != nil {
			t.Fatalf("ping: %v", err)
		}
		return out
	}
	if got := ping(); got != "pong" {
		t.Fatalf("plain cool-protocol ping = %q", got)
	}

	// QoS invocations work over the COOL protocol too (its QoS-extended
	// framing plays the role of GIOP 9.9).
	if err := obj.SetQoSParameter(cool.QoS(cool.MinThroughput(5000, 1000))); err != nil {
		t.Fatal(err)
	}
	if got := ping(); got != "pong" {
		t.Fatalf("qos cool-protocol ping = %q", got)
	}
	if granted := obj.GrantedQoS(); granted.Value(cool.Throughput, 0) != 5000 {
		t.Fatalf("granted = %v", granted)
	}

	// Unknown protocols are rejected cleanly.
	if _, err := server.ListenOnProtocol("inproc", "", "telepathy"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
