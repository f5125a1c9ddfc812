package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	cool "cool"
	"cool/internal/bufpool"
	"cool/internal/cdr"
	"cool/internal/dacapo"
	"cool/internal/giop"
	"cool/internal/obs"
	"cool/internal/qos"
	"cool/internal/transport"
)

// Isolated layer probes. Each times calls into one layer's exported
// functions from outside, at the sizes of the workload being traced, and
// reports nanoseconds per call. A traced run multiplies each by the number
// of times one operation of the workload pays it (path.uses), so a row
// reads "nanoseconds of one operation spent here" and is 0 where the layer
// is not on the workload's path.

// probeSizing is how much work the probes do; the smoke test shrinks it.
type probeSizing struct {
	rounds   int // the median round is reported
	calls    int // calls per round of a probe that stays in one goroutine
	trips    int // round trips per round of a probe that crosses a transport
	connects int // Da CaPo connections probeConnect opens
	flood    int // messages probeBatchSize sends
}

var fullProbes = probeSizing{rounds: 5, calls: 2000, trips: 1000, connects: 250, flood: 20_000}

// calls and trips time f at the path's probe sizing.
func (p *path) calls(f func(n int)) float64 { return perIter(p.sizing.rounds, p.sizing.calls, f) }
func (p *path) trips(f func(n int)) float64 { return perIter(p.sizing.rounds, p.sizing.trips, f) }

// path is what the probes need to know about one operation of a workload.
type path struct {
	payload int         // octets of application payload in one message
	set     cool.QoSSet // QoS of the binding; nil keeps GIOP 1.0
	spec    dacapo.Spec // the Da CaPo stack one message crosses, if any
	// uses maps an isolated row to how many times one operation pays it.
	uses map[string]float64
	// budget lists the rows that add up to the operation's latency without
	// overlapping; orb.unexplained_ns is the latency's median minus them.
	budget []string
	sizing probeSizing // set by probeLayers
}

// probes maps each isolated row to the probe that measures one use of it.
var probes = map[string]func(p *path) (float64, error){
	"cdr.octetseq_codec_ns":         probeOctetSeq,
	"giop.request_codec_ns":         probeRequestCodec,
	"giop.reply_codec_ns":           probeReplyCodec,
	"qos.negotiate_ns":              probeNegotiate,
	"qos.encode_set_ns":             probeEncodeSet,
	"transport.tcp_roundtrip_ns":    func(p *path) (float64, error) { return probeChannel(transport.NewTCPManager(), "127.0.0.1:0", p) },
	"transport.inproc_roundtrip_ns": func(p *path) (float64, error) { return probeChannel(transport.NewInprocManager(), "", p) },
	"dacapo.stack_self_ns":          probeStackSelf,
	"modules.xorcipher_self_ns":     func(p *path) (float64, error) { return probeModuleSelf("xorcipher", p) },
	"modules.crc32_self_ns":         func(p *path) (float64, error) { return probeModuleSelf("crc32", p) },
	"modules.window_self_ns":        func(p *path) (float64, error) { return probeModuleSelf("window", p) },
	"dacapo.connect_us":             probeConnect,
	"dacapo.batch_size_mean":        probeBatchSize,
	"orb.colocated_echo_ns":         probeColocated,
	"bufpool.get_put_ns":            probeBufpool,
	"obs.observe_ns":                probeObserve,
}

// probeLayers runs the probes the workload's path uses and scales them.
func probeLayers(p *path, sizing probeSizing, lr layerReport) error {
	p.sizing = sizing
	for name, uses := range p.uses {
		probe, ok := probes[name]
		if !ok {
			return fmt.Errorf("no probe for %s", name)
		}
		v, err := probe(p)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		lr[name] = v * uses
	}
	if _, viaGIOP := p.uses["giop.request_codec_ns"]; viaGIOP {
		size, err := p.messageSize()
		if err != nil {
			return err
		}
		lr["giop.request_wire_bytes"] = float64(size)
	}
	lr["harness.timer_ns"] = timerCost()
	return nil
}

func probeOctetSeq(p *path) (float64, error) {
	payload := make([]byte, p.payload)
	var err error
	ns := p.calls(func(n int) {
		for i := 0; i < n; i++ {
			enc := cdr.AcquireEncoder(cdr.BigEndian)
			enc.WriteOctetSeq(payload)
			if _, e := cdr.NewDecoder(enc.Bytes(), cdr.BigEndian).ReadOctetSeq(); e != nil {
				err = e
			}
			cdr.ReleaseEncoder(enc)
		}
	})
	return ns, err
}

// version is the GIOP version a binding with the path's QoS speaks.
func (p *path) version() giop.Version {
	if len(p.set) > 0 {
		return giop.VQoS
	}
	return giop.V1_0
}

// requestHeader is the header of the Request the ORB would send for one
// echo: the binding's QoS also pre-encoded, as the client caches it.
func requestHeader(p *path) *giop.RequestHeader {
	hdr := &giop.RequestHeader{
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("obj-1"),
		Operation:        "echo",
		QoS:              p.set,
	}
	if len(p.set) > 0 {
		enc := cdr.NewEncoder(cdr.BigEndian)
		qos.EncodeSet(enc, p.set)
		hdr.QoSFrag = enc.Bytes()
	}
	return hdr
}

// probeCodec times marshalling a message plus unmarshalling it again.
func probeCodec(p *path, marshal func() ([]byte, error)) (float64, error) {
	var err error
	ns := p.calls(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			var frame []byte
			if frame, err = marshal(); err != nil {
				return
			}
			var m *giop.Message
			if m, err = giop.UnmarshalPooled(frame); err == nil {
				giop.ReleaseMessage(m) // recycles the frame too
			}
		}
	})
	return ns, err
}

// probeRequestCodec covers a Request header at the binding's GIOP version;
// the body is cdr.octetseq_codec_ns's row.
func probeRequestCodec(p *path) (float64, error) {
	hdr := requestHeader(p)
	return probeCodec(p, func() ([]byte, error) {
		return giop.MarshalRequest(p.version(), cdr.BigEndian, hdr, nil)
	})
}

func probeReplyCodec(p *path) (float64, error) {
	hdr := &giop.ReplyHeader{RequestID: 7, Status: giop.ReplyNoException}
	return probeCodec(p, func() ([]byte, error) {
		return giop.MarshalReply(p.version(), cdr.BigEndian, hdr, nil)
	})
}

func probeNegotiate(p *path) (float64, error) {
	capability := qos.Unconstrained()
	var err error
	ns := p.calls(func(n int) {
		for i := 0; i < n; i++ {
			if _, e := qos.Negotiate(p.set, capability); e != nil {
				err = e
			}
		}
	})
	return ns, err
}

func probeEncodeSet(p *path) (float64, error) {
	return p.calls(func(n int) {
		for i := 0; i < n; i++ {
			enc := cdr.AcquireEncoder(cdr.BigEndian)
			qos.EncodeSet(enc, p.set)
			cdr.ReleaseEncoder(enc)
		}
	}), nil
}

// pingPong times round trips of one message between send/recv at this end
// and an echoing goroutine at the other; stop ends the echo.
func pingPong(p *path, size int, send func([]byte) error, recv func() ([]byte, error),
	echoRecv func() ([]byte, error), echoSend func([]byte) error, stop func()) (float64, error) {
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			msg, err := echoRecv()
			if err != nil {
				return
			}
			err = echoSend(msg)
			transport.PutBuffer(msg)
			if err != nil {
				return
			}
		}
	}()
	msg := make([]byte, size)
	var err error
	ns := p.trips(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			if err = send(msg); err != nil {
				return
			}
			var back []byte
			if back, err = recv(); err == nil {
				transport.PutBuffer(back)
			}
		}
	})
	stop()
	echo.Wait()
	return ns, err
}

// probeChannel times a raw transport.Channel ping-pong at the workload's
// message size.
func probeChannel(m transport.Manager, addr string, p *path) (float64, error) {
	size, err := p.messageSize()
	if err != nil {
		return 0, err
	}
	l, err := m.Listen(addr)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	a, err := m.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	b, err := l.Accept()
	if err != nil {
		a.Close()
		return 0, err
	}
	return pingPong(p, size, a.WriteMessage, a.ReadMessage, b.ReadMessage, b.WriteMessage, func() {
		a.Close()
		b.Close()
	})
}

// probeRuntime times a dacapo.Runtime ping-pong through spec over the
// in-process transport.
func probeRuntime(p *path, spec dacapo.Spec, size int) (float64, error) {
	a, b, l, err := runtimePair(spec)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return pingPong(p, size, a.Send, a.Recv, b.Recv, b.Send, func() {
		a.Close()
		b.Close()
	})
}

// messageSize is what one message of the workload presents to the stack.
func (p *path) messageSize() (int, error) {
	if _, viaGIOP := p.uses["giop.request_codec_ns"]; !viaGIOP {
		return p.payload, nil
	}
	payload := make([]byte, p.payload)
	frame, err := giop.MarshalRequest(p.version(), cdr.BigEndian, requestHeader(p),
		func(enc *cdr.Encoder) { enc.WriteOctetSeq(payload) })
	if err != nil {
		return 0, err
	}
	defer giop.ReleaseFrame(frame)
	return len(frame), nil
}

// probeStackSelf is a ping-pong through the workload's spec minus the same
// ping-pong on the bare in-process channel.
func probeStackSelf(p *path) (float64, error) {
	size, err := p.messageSize()
	if err != nil {
		return 0, err
	}
	with, err := probeRuntime(p, p.spec, size)
	if err != nil {
		return 0, err
	}
	bare, err := probeChannel(transport.NewInprocManager(), "", p)
	return with - bare, err
}

// probeModuleSelf is a ping-pong through a one-module spec minus one
// through the empty spec.
func probeModuleSelf(module string, p *path) (float64, error) {
	size, err := p.messageSize()
	if err != nil {
		return 0, err
	}
	with, err := probeRuntime(p, specOf(module), size)
	if err != nil {
		return 0, err
	}
	empty, err := probeRuntime(p, dacapo.Spec{}, size)
	return with - empty, err
}

// managerPair is a dialling and an accepting Da CaPo manager over one
// in-process network, hosted on two ORBs so their counters show in
// Metrics().Snapshot().
type managerPair struct {
	dialORB, acceptORB *cool.ORB
	dial               *dacapo.Manager
	listener           transport.Listener
}

func newManagerPair(link cool.Capability) (*managerPair, error) {
	inner := transport.NewInprocManager()
	mp := &managerPair{
		dialORB:   cool.NewORB(cool.WithName("probe-dial"), cool.WithTransport(inner)),
		acceptORB: cool.NewORB(cool.WithName("probe-accept"), cool.WithTransport(inner)),
	}
	mp.dial = cool.EnableDaCaPo(mp.dialORB, cool.DaCaPoConfig{Inner: inner, Link: link})
	l, err := cool.EnableDaCaPo(mp.acceptORB, cool.DaCaPoConfig{Inner: inner, Link: link}).Listen("")
	if err != nil {
		mp.close()
		return nil, err
	}
	mp.listener = l
	return mp, nil
}

func (mp *managerPair) close() {
	if mp.listener != nil {
		mp.listener.Close()
	}
	mp.dialORB.Shutdown()
	mp.acceptORB.Shutdown()
}

// probeConnect times Dial + SetQoSParameter of a Da CaPo channel:
// configuration, signalling round trip, admission and runtime start, but
// not the teardown that follows. In microseconds.
func probeConnect(p *path) (float64, error) {
	mp, err := newManagerPair(lossyLink())
	if err != nil {
		return 0, err
	}
	defer mp.close()
	var accepting sync.WaitGroup
	accepting.Add(1)
	go func() {
		defer accepting.Done()
		for {
			ch, err := mp.listener.Accept()
			if err != nil {
				if errors.Is(err, transport.ErrClosed) {
					return
				}
				continue
			}
			if msg, err := ch.ReadMessage(); err == nil { // returns when the dialler closes
				transport.PutBuffer(msg)
			}
			ch.Close()
		}
	}()
	set := p.set
	if set == nil {
		set = cool.QoS(cool.Reliable()...) // the re-dial a renegotiation cycle pays
	}
	var connects []float64
	for i := 0; i < p.sizing.connects && err == nil; i++ {
		t0 := now()
		ch, e := mp.dial.Dial(mp.listener.Addr())
		if e != nil {
			err = e
			break
		}
		_, err = ch.SetQoSParameter(set)
		connects = append(connects, float64(now()-t0))
		ch.Close()
	}
	mp.listener.Close()
	accepting.Wait()
	return median(connects) / 1e3, err
}

// probeBatchSize floods 1 KiB messages through a reliable Da CaPo channel
// and reads the mean batch the window stage's pump took off its queue.
func probeBatchSize(p *path) (float64, error) {
	mp, err := newManagerPair(lossyLink())
	if err != nil {
		return 0, err
	}
	defer mp.close()
	messages := p.sizing.flood
	recvErr := make(chan error, 1)
	go func() {
		ch, err := mp.listener.Accept()
		if err != nil {
			recvErr <- err
			return
		}
		defer ch.Close()
		for i := 0; i < messages; i++ {
			msg, err := ch.ReadMessage()
			if err != nil {
				recvErr <- err
				return
			}
			transport.PutBuffer(msg)
		}
		recvErr <- nil
	}()
	ch, err := mp.dial.Dial(mp.listener.Addr())
	if err != nil {
		return 0, err
	}
	defer ch.Close()
	if _, err := ch.SetQoSParameter(cool.QoS(cool.Reliable()...)); err != nil {
		return 0, err
	}
	msg := make([]byte, p.payload)
	for i := 0; i < messages; i++ {
		if err := ch.WriteMessage(msg); err != nil {
			return 0, err
		}
	}
	if err := <-recvErr; err != nil {
		return 0, err
	}
	h, ok := cool.Metrics(mp.dialORB).Snapshot().Histogram("dacapo.batch.size{stage=window}")
	if !ok || h.Count == 0 {
		return 0, errors.New("no dacapo.batch.size{stage=window} observations")
	}
	return float64(h.Sum) / float64(h.Count), nil
}

// probeColocated times a colocated echo: stub, request and reply codecs,
// object adapter, bilateral negotiation and servant, with no transport.
func probeColocated(p *path) (float64, error) {
	o := cool.NewORB(cool.WithName("probe-colocated"))
	defer o.Shutdown()
	ref, err := o.RegisterServant(&echoServant{}, cool.WithCapability(qos.Unconstrained()))
	if err != nil {
		return 0, err
	}
	c := newEchoCaller(make([]byte, p.payload))
	c.obj = o.Resolve(ref)
	if p.set != nil {
		if err := c.obj.SetQoSParameter(p.set); err != nil {
			return 0, err
		}
	}
	if local, err := c.obj.Colocated(); err != nil || !local {
		return 0, fmt.Errorf("binding not colocated (err %v)", err)
	}
	ns := p.calls(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = c.echo(uint64(i), nil)
		}
	})
	return ns, err
}

func probeBufpool(p *path) (float64, error) {
	size, err := p.messageSize()
	if err != nil {
		return 0, err
	}
	return p.calls(func(n int) {
		for i := 0; i < n; i++ {
			bufpool.Put(bufpool.Get(size))
		}
	}), nil
}

func probeObserve(p *path) (float64, error) {
	h := obs.NewRegistry().Histogram("bench.probe_us", obs.LatencyBuckets())
	return p.calls(func(n int) {
		for i := 0; i < n; i++ {
			h.ObserveDuration(time.Duration(i) * time.Microsecond)
		}
	}), nil
}
