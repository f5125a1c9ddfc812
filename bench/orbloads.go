package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	cool "cool"
	"cool/internal/cdr"
	"cool/internal/qos"
	"cool/internal/transport"
)

// The ORB workloads: two ORBs side by side in this process, driven only
// through the cool facade with default options.

// tracing is set by the coordinator during the traced slices of a traced
// run. Benchmark-side callbacks on both ORBs read it.
var tracing atomic.Bool

// An operation's id travels in the first eight payload octets so the
// servant can find the span record its caller opened: caller in the top
// byte below the traced bit, sequence number in the rest.
const (
	tracedBit = uint64(1) << 63
	seqBits   = 48
)

func opID(caller int, seq uint64, traced bool) uint64 {
	id := uint64(caller)<<seqBits | seq&(1<<seqBits-1)
	if traced {
		id |= tracedBit
	}
	return id
}

var errMismatch = errors.New("reply differs from the payload sent")

// echoServant answers "echo" with its argument, like the servant of
// internal/experiments, and counts the requests that carried qos_params:
// only GIOP 9.9 can carry them, so the count tells which protocol version
// was on the wire.
type echoServant struct {
	spans    *spanRings
	qosCalls atomic.Int64
}

func (s *echoServant) RepoID() string { return "IDL:bench/Echo:1.0" }

func (s *echoServant) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	if inv.Operation != "echo" {
		return nil, fmt.Errorf("unknown operation %q", inv.Operation)
	}
	var in int64
	if tracing.Load() {
		in = now()
	}
	msg, err := inv.Args.ReadOctetSeq()
	if err != nil {
		return nil, err
	}
	if len(inv.QoS) > 0 {
		s.qosCalls.Add(1)
	}
	if in != 0 && len(msg) >= 8 {
		if id := binary.BigEndian.Uint64(msg); id&tracedBit != 0 {
			sp := s.spans.slot(id)
			sp.t[stServantIn] = in
			w := func(enc *cdr.Encoder) {
				sp.t[stReplyEncIn] = now()
				enc.WriteOctetSeq(msg)
				sp.t[stReplyEncOut] = now()
			}
			sp.t[stServantOut] = now()
			return w, nil
		}
	}
	// msg aliases the request frame, which stays valid until the reply
	// writer has run.
	return func(enc *cdr.Encoder) { enc.WriteOctetSeq(msg) }, nil
}

// echoCaller is one synchronous caller: its proxy, its payload buffer and
// the two marshalling callbacks, built once so an invocation allocates
// nothing on the benchmark's side.
type echoCaller struct {
	obj     *cool.Object
	payload []byte
	sp      *echoSpan // the record of the traced invocation in flight
	match   bool
	encode  func(*cdr.Encoder)
	decode  func(*cdr.Decoder) error
}

func newEchoCaller(payload []byte) *echoCaller {
	c := &echoCaller{payload: payload}
	c.encode = func(enc *cdr.Encoder) {
		if c.sp != nil {
			c.sp.t[stArgsIn] = now()
		}
		enc.WriteOctetSeq(c.payload)
		if c.sp != nil {
			c.sp.t[stArgsOut] = now()
		}
	}
	c.decode = func(dec *cdr.Decoder) error {
		if c.sp != nil {
			c.sp.t[stDecodeIn] = now()
		}
		got, err := dec.ReadOctetSeq()
		c.match = err == nil && bytes.Equal(got, c.payload)
		if c.sp != nil {
			c.sp.t[stDecodeOut] = now()
		}
		return err
	}
	return c
}

// echo performs one verified invocation; sp is the span record to stamp,
// nil when untraced.
func (c *echoCaller) echo(id uint64, sp *echoSpan) error {
	binary.BigEndian.PutUint64(c.payload, id)
	c.sp, c.match = sp, false
	if sp != nil {
		sp.id = id
		sp.t[stInvokeIn] = now()
	}
	err := c.obj.Invoke("echo", c.encode, c.decode)
	if sp != nil {
		sp.t[stInvokeOut] = now()
		c.sp = nil
	}
	if err != nil {
		return err
	}
	if !c.match {
		return errMismatch
	}
	return nil
}

// orbEnv is a server ORB and a client ORB over loopback TCP ("tcp") or
// over Da CaPo on the in-process transport ("dacapo").
type orbEnv struct {
	inner          *transport.InprocManager // dacapo only
	server, client *cool.ORB
	ref            cool.Ref
	servant        *echoServant
}

func newORBEnv(scheme string, spans *spanRings) (*orbEnv, error) {
	e := &orbEnv{servant: &echoServant{spans: spans}}
	addr := "127.0.0.1:0"
	if scheme == "dacapo" {
		e.inner = transport.NewInprocManager()
		addr = ""
	}
	e.server = e.newORB("bench-server")
	e.client = e.newORB("bench-client")
	if _, err := e.server.ListenOn(scheme, addr); err != nil {
		e.close()
		return nil, err
	}
	ref, err := e.server.RegisterServant(e.servant, cool.WithCapability(qos.Unconstrained()))
	if err != nil {
		e.close()
		return nil, err
	}
	e.ref = ref
	return e, nil
}

func (e *orbEnv) newORB(name string) *cool.ORB {
	if e.inner == nil {
		return cool.NewORB(cool.WithName(name))
	}
	o := cool.NewORB(cool.WithName(name), cool.WithTransport(e.inner))
	cool.EnableDaCaPo(o, cool.DaCaPoConfig{Inner: e.inner})
	return o
}

func (e *orbEnv) close() error {
	e.client.Shutdown()
	e.server.Shutdown()
	return nil
}

// echoInst is the three echo workloads: callers proxies on one client ORB,
// hence one connection, each echoing its own seeded payload.
type echoInst struct {
	env   *orbEnv
	set   cool.QoSSet // nil leaves the binding on GIOP 1.0
	cs    []*echoCaller
	rings *spanRings
	base  orbCounters
}

func startEcho(scheme string, callers, size int, set cool.QoSSet) func(*config) (instance, error) {
	return func(cfg *config) (instance, error) {
		spans := newSpanRings(callers, cfg.trace)
		env, err := newORBEnv(scheme, spans)
		if err != nil {
			return nil, err
		}
		in := &echoInst{env: env, set: set, rings: spans}
		rng := rand.New(rand.NewSource(int64(cfg.seed)))
		for c := 0; c < callers; c++ {
			caller := newEchoCaller(seededPayload(rng, size))
			caller.obj = env.client.Resolve(env.ref)
			if set != nil {
				if err := caller.obj.SetQoSParameter(set); err != nil {
					env.close()
					return nil, err
				}
			}
			if err := caller.echo(opID(c, 0, false), nil); err != nil {
				env.close()
				return nil, fmt.Errorf("first echo of caller %d: %w", c, err)
			}
			in.cs = append(in.cs, caller)
		}
		return in, nil
	}
}

func seededPayload(rng *rand.Rand, size int) []byte {
	p := make([]byte, size)
	rng.Read(p)
	return p
}

func (in *echoInst) callers() int { return len(in.cs) }

func (in *echoInst) prepare(int, uint64) error { return nil }

func (in *echoInst) op(caller int, seq uint64, traced bool) error {
	id := opID(caller, seq, traced)
	var sp *echoSpan
	if traced {
		sp = in.rings.slot(id)
	}
	return in.cs[caller].echo(id, sp)
}

func (in *echoInst) drive(r *run) {
	in.base = readORBCounters(in.env)
	driveLoop(in, r)
}

func (in *echoInst) finish(lr layerReport) error {
	in.env.reportSince(in.base, lr)
	qosCalls := in.env.servant.qosCalls.Load()
	if in.set == nil {
		if qosCalls != 0 {
			return errors.New("requests carried qos_params on a GIOP 1.0 workload")
		}
		return nil
	}
	if g := in.cs[0].obj.GrantedQoS(); g.Value(cool.Confidentiality, 0) != 1 {
		return fmt.Errorf("granted QoS %v lacks confidentiality", g)
	}
	if qosCalls == 0 {
		return errors.New("no request carried qos_params: the wire was not GIOP 9.9")
	}
	return nil
}

func (in *echoInst) spans() []span { return in.rings.spans() }

func (in *echoInst) close() error { return in.env.close() }

// bindInst is bind_qos: every operation is a fresh proxy with a QoS set its
// client ORB has not seen, so it pays profile selection, dial, Da CaPo
// signalling and both negotiations before its first reply.
type bindInst struct {
	env    *orbEnv
	caller *echoCaller
	first  uint64 // seeded start of the throughput sequence
	ops    int64
	rings  *spanRings
	cached int64 // orb.client.conns_cached seen just before a client was replaced
	base   orbCounters
}

// bindClientLife is how many bindings one client ORB serves before it is
// replaced: connections are cached per QoS key and never evicted, so an
// unbounded run would measure a growing table.
const bindClientLife = 256

func startBind(size int) func(*config) (instance, error) {
	return func(cfg *config) (instance, error) {
		spans := newSpanRings(1, cfg.trace)
		env, err := newORBEnv("dacapo", spans)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(cfg.seed)))
		b := &bindInst{env: env, rings: spans, caller: newEchoCaller(seededPayload(rng, size))}
		b.first = uint64(rng.Intn(bindSpread))
		if err := b.bind(opID(0, 0, false), 0, nil); err != nil {
			env.close()
			return nil, fmt.Errorf("first bind: %w", err)
		}
		return b, nil
	}
}

// bindSpread is the range of requested throughputs, kbit/s above 10 000;
// all of it fits the default 155 Mbit/s link.
const bindSpread = 100_000

func (b *bindInst) callers() int { return 1 }

func (b *bindInst) prepare(_ int, seq uint64) error {
	if seq == 0 || seq%bindClientLife != 0 {
		return nil
	}
	b.cached = cool.Metrics(b.env.client).Snapshot().Gauge("orb.client.conns_cached")
	b.env.client.Shutdown()
	b.env.client = b.env.newORB("bench-client")
	return nil
}

func (b *bindInst) op(_ int, seq uint64, traced bool) error {
	id := opID(0, seq+1, traced)
	var sp *echoSpan
	if traced {
		sp = b.rings.slot(id)
	}
	return b.bind(id, seq+1, sp)
}

func (b *bindInst) bind(id, seq uint64, sp *echoSpan) error {
	b.ops++
	want := 10_000 + uint32((b.first+seq)%bindSpread)
	set, err := cool.TryQoS(cool.MinThroughput(want, 1_000), cool.Encrypted())
	if err != nil {
		return err
	}
	obj := b.env.client.Resolve(b.env.ref)
	if err := obj.SetQoSParameter(set); err != nil {
		return err
	}
	b.caller.obj = obj
	if err := b.caller.echo(id, sp); err != nil {
		return err
	}
	if granted := obj.GrantedQoS(); !satisfies(granted, set) {
		return fmt.Errorf("granted %v does not satisfy requested %v", granted, set)
	}
	return nil
}

// satisfies reports whether granted holds an acceptable value for every
// requested parameter.
func satisfies(granted, requested cool.QoSSet) bool {
	for _, p := range requested {
		if g, ok := granted.Get(p.Type); !ok || !p.Accepts(g.Request) {
			return false
		}
	}
	return true
}

func (b *bindInst) drive(r *run) {
	b.base = readORBCounters(b.env)
	driveLoop(b, r)
}

func (b *bindInst) finish(lr layerReport) error {
	b.env.reportSince(b.base, lr)
	if b.cached > 0 {
		lr["orb.conns_cached"] = float64(b.cached)
	}
	if calls := b.env.servant.qosCalls.Load(); calls != b.ops {
		return fmt.Errorf("%d of %d binds reached the servant with qos_params: the wire was not GIOP 9.9 throughout", calls, b.ops)
	}
	return nil
}

func (b *bindInst) spans() []span { return b.rings.spans() }

func (b *bindInst) close() error { return b.env.close() }

// orbCounters is the two ORBs' public metric snapshots.
type orbCounters struct {
	client, server cool.MetricsSnapshot
}

func readORBCounters(e *orbEnv) orbCounters {
	return orbCounters{
		client: cool.Metrics(e.client).Snapshot(),
		server: cool.Metrics(e.server).Snapshot(),
	}
}

// reportSince puts the per-layer numbers of the run since base into lr.
// The client ORB of bind_qos is replaced during a run; Delta then reports
// the new ORB's full counts, which is the wanted reading.
func (e *orbEnv) reportSince(base orbCounters, lr layerReport) {
	c := readORBCounters(e)
	dc, ds := c.client.Delta(base.client), c.server.Delta(base.server)
	if h, ok := dc.Histogram("orb.client.flush_batch"); ok && h.Count > 0 {
		lr["orb.flush_batch_mean"] = float64(h.Sum) / float64(h.Count)
	}
	if h, ok := dc.Histogram("orb.client.flow_control_wait_us"); ok {
		lr["orb.flow_wait_p99_us"] = float64(h.Quantile(0.99))
	}
	if h, ok := ds.Histogram("orb.server.dispatch_us{op=echo}"); ok {
		lr["orb.server_dispatch_p50_us"] = float64(h.Quantile(0.50))
	}
	lr["orb.conns_cached"] = float64(dc.Gauge("orb.client.conns_cached"))
	lr["dacapo.segments_threaded"] = float64(dc.Gauge("dacapo.segments.threaded"))
}
