package dacapo

import (
	"errors"
	"io"
	"strings"
	"testing"

	"cool/internal/bufpool"
	"cool/internal/cdr"
	"cool/internal/qos"
	"cool/internal/transport"
)

// scriptedPeer is a transport.Channel driven by a script instead of a
// peer: each ReadMessage hands out the next scripted frame in a pooled
// buffer, as a real transport does (io.EOF once the script is spent), and
// WriteMessage fails with writeErr when it is set.
type scriptedPeer struct {
	reads    [][]byte
	writeErr error
	closes   int
}

func (p *scriptedPeer) WriteMessage([]byte) error { return p.writeErr }

func (p *scriptedPeer) WriteMessages([][]byte) error { return p.writeErr }

func (p *scriptedPeer) ReadMessage() ([]byte, error) {
	if len(p.reads) == 0 {
		return nil, io.EOF
	}
	frame := append(transport.GetBuffer(len(p.reads[0])), p.reads[0]...)
	p.reads = p.reads[1:]
	return frame, nil
}

func (p *scriptedPeer) SetQoSParameter(params qos.Set) (qos.Set, error) { return params, nil }
func (p *scriptedPeer) Close() error                                    { p.closes++; return nil }
func (p *scriptedPeer) LocalAddr() string                               { return "script" }
func (p *scriptedPeer) RemoteAddr() string                              { return "script" }

// stubModule passes packets through; its Start fails when startErr is set.
type stubModule struct {
	BaseModule
	startErr error
}

func (m *stubModule) Name() string { return "stub" }

func (m *stubModule) Start(*Context) error { return m.startErr }

func (m *stubModule) HandleDown(ctx *Context, p *Packet) error { return ctx.EmitDown(p) }

func (m *stubModule) HandleUp(ctx *Context, p *Packet) error { return ctx.EmitUp(p) }

// stubRegistry serves "stub" modules. The build after the first okBuilds
// fails, so a spec can pass Validate (one build) and still fail NewRuntime
// (the next); startErr makes every built module fail to start.
func stubRegistry(okBuilds int, startErr error) *Registry {
	reg := NewRegistry()
	builds := 0
	reg.Register("stub", func(Args) (Module, error) {
		builds++
		if okBuilds > 0 && builds > okBuilds {
			return nil, errors.New("out of module instances")
		}
		return &stubModule{startErr: startErr}, nil
	})
	return reg
}

var stubSpec = Spec{Modules: []ModuleSpec{{Name: "stub"}}}

// configFrame encodes a connection proposal for spec without QoS
// requirements; truncate cuts it short by that many bytes.
func configFrame(spec Spec, truncate int) []byte {
	f := encodeSignal(sigConfig, func(enc *cdr.Encoder) {
		spec.Encode(enc)
		qos.EncodeSet(enc, nil)
	})
	return f[:len(f)-truncate]
}

// TestConnectAcceptCloseChannelOnFailure scripts a peer that breaks the
// handshake at each step, on each side: every failing Connect or Accept
// must close the channel it was handed and release every pooled frame it
// read.
func TestConnectAcceptCloseChannelOnFailure(t *testing.T) {
	okAnswer := encodeSignal(sigOK, func(enc *cdr.Encoder) { qos.EncodeSet(enc, nil) })
	cases := []struct {
		name     string
		accept   bool
		reg      *Registry
		reads    [][]byte
		writeErr error
		want     string
	}{
		{name: "connect/write", reg: stubRegistry(0, nil), writeErr: io.ErrClosedPipe, want: "send config"},
		{name: "connect/read", reg: stubRegistry(0, nil), want: "read config answer"},
		{name: "connect/bad magic", reg: stubRegistry(0, nil), reads: [][]byte{[]byte("garbage!")}, want: "malformed"},
		{name: "connect/bad granted set", reg: stubRegistry(0, nil), reads: [][]byte{okAnswer[:len(okAnswer)-2]}, want: "granted qos"},
		{name: "connect/rejected", reg: stubRegistry(0, nil), reads: [][]byte{encodeSignal(sigReject, func(enc *cdr.Encoder) { enc.WriteString("no") })}, want: "rejected"},
		{name: "connect/unexpected signal", reg: stubRegistry(0, nil), reads: [][]byte{encodeSignal(sigTeardown, nil)}, want: "unexpected signal"},
		{name: "connect/new runtime", reg: stubRegistry(1, nil), reads: [][]byte{okAnswer}, want: "out of module instances"},
		{name: "connect/start", reg: stubRegistry(0, errors.New("no start")), reads: [][]byte{okAnswer}, want: "no start"},

		{name: "accept/read", accept: true, reg: stubRegistry(0, nil), want: "read config"},
		{name: "accept/bad magic", accept: true, reg: stubRegistry(0, nil), reads: [][]byte{[]byte("garbage!")}, want: "malformed"},
		{name: "accept/not a config", accept: true, reg: stubRegistry(0, nil), reads: [][]byte{okAnswer}, want: "expected config"},
		{name: "accept/bad spec", accept: true, reg: stubRegistry(0, nil), reads: [][]byte{encodeSignal(sigConfig, nil)}, want: "spec"},
		{name: "accept/bad qos", accept: true, reg: stubRegistry(0, nil), reads: [][]byte{configFrame(Spec{}, 2)}, want: "qos"},
		{name: "accept/rejected", accept: true, reg: NewRegistry(), reads: [][]byte{configFrame(stubSpec, 0)}, want: "rejected"},
		{name: "accept/write", accept: true, reg: stubRegistry(0, nil), reads: [][]byte{configFrame(stubSpec, 0)}, writeErr: io.ErrClosedPipe, want: "send accept"},
		{name: "accept/new runtime", accept: true, reg: stubRegistry(1, nil), reads: [][]byte{configFrame(stubSpec, 0)}, want: "out of module instances"},
		{name: "accept/start", accept: true, reg: stubRegistry(0, errors.New("no start")), reads: [][]byte{configFrame(stubSpec, 0)}, want: "no start"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := len(bufpool.Leaks())
			peer := &scriptedPeer{reads: tc.reads, writeErr: tc.writeErr}
			var err error
			if tc.accept {
				_, _, err = Accept(peer, tc.reg, nil)
			} else {
				_, _, err = Connect(peer, tc.reg, stubSpec, nil)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
			if peer.closes == 0 {
				t.Error("failed handshake left the channel open")
			}
			if after := len(bufpool.Leaks()); after != before {
				t.Errorf("pooled frames leaked: ledger %d -> %d", before, after)
			}
		})
	}
}
