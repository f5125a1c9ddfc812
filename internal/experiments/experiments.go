// Package experiments implements the measurement harnesses that regenerate
// the paper's evaluation (§6) and the ablations DESIGN.md calls out:
//
//   - E1 / Figure 9: Da CaPo throughput for different packet sizes and
//     protocol configurations (dummy-module chains vs the IRQ
//     idle-repeat-request flow control).
//   - E2: response time of remote invocations with the original GIOP 1.0
//     versus the QoS-extended GIOP 9.9.
//   - E3: cost of the negotiation scenarios of Figure 3 (granted, NACK,
//     per-binding vs per-method renegotiation).
//   - E4: invocation latency across the transports (tcp, inproc, dacapo)
//     and the colocated shortcut.
//   - E5: the configuration manager's QoS→protocol mapping, with delivered
//     reliability measured on a lossy link.
//   - E6: wire-size and marshalling cost of the qos_params extension.
//
// cmd/multebench prints the tables; the root bench_test.go exposes the same
// harnesses as testing.B benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"cool/internal/cdr"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/giop"
	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
	"cool/internal/transport"
)

// NamedSpec labels a protocol configuration under test.
type NamedSpec struct {
	Name string
	Spec dacapo.Spec
}

// Fig9Configs returns the protocol configurations of Figure 9: chains of
// 0/10/20/40 dummy modules, and the IRQ (idle-repeat-request) module.
func Fig9Configs() []NamedSpec {
	dummies := func(n int) dacapo.Spec {
		var s dacapo.Spec
		for i := 0; i < n; i++ {
			s.Modules = append(s.Modules, dacapo.ModuleSpec{Name: "dummy"})
		}
		return s
	}
	return []NamedSpec{
		{Name: "0 dummy", Spec: dummies(0)},
		{Name: "10 dummy", Spec: dummies(10)},
		{Name: "20 dummy", Spec: dummies(20)},
		{Name: "40 dummy", Spec: dummies(40)},
		{Name: "irq", Spec: dacapo.Spec{Modules: []dacapo.ModuleSpec{
			{Name: "irq", Args: dacapo.Args{"rto": "200ms"}},
		}}},
	}
}

// Fig9PacketSizes returns the packet-size sweep (octets).
func Fig9PacketSizes() []int {
	return []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
}

// Fig9Link returns the simulated network of the experiment: the paper's
// 155 Mbit/s ATM-class link with LAN propagation delay.
func Fig9Link() netsim.Params {
	p := netsim.LAN()
	p.QueueLen = 128
	return p
}

// MeasureStackThroughput runs the paper's throughput test application: a
// measuring A-module sends msgCount dummy packets of msgSize octets from a
// pre-allocated buffer through the protocol configuration; the receiving
// side counts them. It returns the end-to-end goodput in Mbit/s.
func MeasureStackThroughput(spec dacapo.Spec, link netsim.Params, msgSize, msgCount int) (float64, error) {
	l := netsim.NewLink(link)
	defer l.Close()
	a, b := l.Endpoints()

	reg := modules.NewLibrary()
	sender, err := dacapo.NewRuntime(spec, reg, a)
	if err != nil {
		return 0, err
	}
	receiver, err := dacapo.NewRuntime(spec, reg, b)
	if err != nil {
		return 0, err
	}
	if err := sender.Start(); err != nil {
		return 0, err
	}
	if err := receiver.Start(); err != nil {
		return 0, err
	}
	defer sender.Close()
	defer receiver.Close()

	payload := make([]byte, msgSize) // the pre-allocated send buffer
	for i := range payload {
		payload[i] = byte(i)
	}

	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i < msgCount; i++ {
			if err := sender.Send(payload); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	received := 0
	for received < msgCount {
		msg, err := receiver.Recv()
		if err != nil {
			return 0, fmt.Errorf("experiments: receive after %d/%d: %w", received, msgCount, err)
		}
		if len(msg) != msgSize {
			return 0, fmt.Errorf("experiments: message size %d, want %d", len(msg), msgSize)
		}
		transport.PutBuffer(msg) // frames are arena-owned; recycle at line rate
		received++
	}
	elapsed := time.Since(start)
	if err := <-errc; err != nil {
		return 0, err
	}
	bits := float64(msgCount) * float64(msgSize) * 8
	return bits / elapsed.Seconds() / 1e6, nil
}

// Fig9Point is one cell of the Figure 9 matrix.
type Fig9Point struct {
	Config     string
	PacketSize int
	Mbps       float64
}

// Fig9Options scales the experiment.
type Fig9Options struct {
	// TargetBytes is the approximate volume per cell; larger is steadier.
	TargetBytes int
	// MinCount/MaxCount clamp the per-cell message count.
	MinCount, MaxCount int
}

// DefaultFig9Options returns the defaults used by cmd/multebench.
func DefaultFig9Options() Fig9Options {
	return Fig9Options{TargetBytes: 12 << 20, MinCount: 24, MaxCount: 4096}
}

// QuickFig9Options returns a fast, noisier variant for tests.
func QuickFig9Options() Fig9Options {
	return Fig9Options{TargetBytes: 1 << 20, MinCount: 8, MaxCount: 256}
}

// RunFig9 measures the full Figure 9 matrix.
func RunFig9(opts Fig9Options) ([]Fig9Point, error) {
	var out []Fig9Point
	link := Fig9Link()
	for _, cfg := range Fig9Configs() {
		for _, size := range Fig9PacketSizes() {
			count := opts.TargetBytes / size
			if cfg.Name == "irq" {
				// Stop-and-wait is ~1 packet per RTT: bound the volume so
				// the cell finishes in reasonable time.
				count = min(count, 2048*1024/size+16)
			}
			count = max(opts.MinCount, min(count, opts.MaxCount))
			mbps, err := MeasureStackThroughput(cfg.Spec, link, size, count)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 %s/%d: %w", cfg.Name, size, err)
			}
			out = append(out, Fig9Point{Config: cfg.Name, PacketSize: size, Mbps: mbps})
		}
	}
	return out, nil
}

// RTStats summarises round-trip samples.
type RTStats struct {
	N                   int
	Mean, P50, P95, P99 time.Duration
	Min, Max            time.Duration
}

func summarize(samples []time.Duration) RTStats {
	if len(samples) == 0 {
		return RTStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return RTStats{
		N:    len(samples),
		Mean: sum / time.Duration(len(samples)),
		P50:  samples[len(samples)/2],
		P95:  samples[len(samples)*95/100],
		P99:  samples[len(samples)*99/100],
		Min:  samples[0],
		Max:  samples[len(samples)-1],
	}
}

// Env is a reusable two-ORB environment over one in-process network with a
// Da CaPo transport at both ends.
type Env struct {
	Server, Client *orb.ORB
	obj            *orb.Object
}

// echoServant answers "echo" with its argument.
type echoServant struct{}

func (echoServant) RepoID() string { return "IDL:experiments/Echo:1.0" }

func (echoServant) Invoke(inv *orb.Invocation) (orb.ReplyWriter, error) {
	switch inv.Operation {
	case "echo":
		msg, err := inv.Args.ReadOctetSeq()
		if err != nil {
			return nil, giop.MarshalException()
		}
		// msg aliases the request frame, which stays valid until the reply
		// writer has run — no copy needed.
		return func(enc *cdr.Encoder) { enc.WriteOctetSeq(msg) }, nil
	default:
		return nil, giop.BadOperation()
	}
}

// NewEnv builds the environment listening on the given schemes, with the
// Da CaPo transports running over an in-process network.
func NewEnv(schemes ...string) (*Env, error) {
	inner := transport.NewInprocManager()
	lib := modules.NewLibrary()
	link := netsim.LAN().Capability()
	server := orb.New(
		orb.WithName("exp-server"),
		orb.WithTransport(inner),
	)
	client := orb.New(
		orb.WithName("exp-client"),
		orb.WithTransport(inner),
	)
	for _, o := range []*orb.ORB{server, client} {
		m := dacapo.NewManager(inner, lib, dacapo.NewResourceManager(0, 0), link)
		m.Instrument(o.Metrics(), o.Tracer())
		o.Transports().Register(m)
	}
	e := &Env{Server: server, Client: client}
	for _, s := range schemes {
		if _, err := server.ListenOn(s, ""); err != nil {
			client.Shutdown()
			server.Shutdown()
			return nil, err
		}
	}
	ref, err := server.RegisterServant(echoServant{},
		orb.WithCapability(qos.Unconstrained()), orb.WithInlineDispatch())
	if err != nil {
		client.Shutdown()
		server.Shutdown()
		return nil, err
	}
	e.obj = client.Resolve(ref)
	return e, nil
}

// Close shuts both ORBs down.
func (e *Env) Close() {
	e.Client.Shutdown()
	e.Server.Shutdown()
}

// Object returns the client proxy for the echo servant.
func (e *Env) Object() *orb.Object { return e.obj }

// LocalObject returns a proxy resolved inside the server ORB (colocated).
func (e *Env) LocalObject() *orb.Object {
	return e.Server.Resolve(e.Server.RefFor("IDL:experiments/Echo:1.0", []byte("obj-1")))
}

// Echo performs one echo invocation with the given payload.
func Echo(obj *orb.Object, payload []byte) error {
	return obj.Invoke("echo",
		func(enc *cdr.Encoder) { enc.WriteOctetSeq(payload) },
		func(dec *cdr.Decoder) error {
			_, err := dec.ReadOctetSeq()
			return err
		})
}

// MeasureInvocationRT samples n echo round trips on obj.
func MeasureInvocationRT(obj *orb.Object, payload []byte, n int) (RTStats, error) {
	// Warm up the binding so connection setup is excluded, as in the
	// paper's steady-state response-time measurement.
	if err := Echo(obj, payload); err != nil {
		return RTStats{}, err
	}
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := Echo(obj, payload); err != nil {
			return RTStats{}, err
		}
		samples = append(samples, time.Since(start))
	}
	return summarize(samples), nil
}

// GIOPComparison is the E2 result: plain vs QoS-extended GIOP.
type GIOPComparison struct {
	Plain RTStats // GIOP 1.0, no setQoSParameter
	QoS   RTStats // GIOP 9.9, qos_params in every Request
}

// giopBlock is how many consecutive E2 samples one GIOP version takes
// before the other's turn.
const giopBlock = 10

// giopOrder returns which of two alternatives takes each of 2n samples
// (E2: 0 for GIOP 1.0, 1 for 9.9; E3: 0 warm, 1 fresh): blocks of at most
// block samples, the two in turn, so drift of the host over the run falls
// on both alike.
func giopOrder(n, block int) []int {
	order := make([]int, 0, 2*n)
	for done := 0; done < n; done += block {
		k := min(block, n-done)
		for v := range 2 {
			for range k {
				order = append(order, v)
			}
		}
	}
	return order
}

// RunGIOPComparison measures E2 over the Da CaPo transport, which both
// versions can share (the QoS set for the extended version is modest so
// the protocol configuration stays comparable). Two proxies of one
// servant, one plain and one with the QoS set, are sampled in alternating
// blocks.
func RunGIOPComparison(n, payload int) (GIOPComparison, error) {
	env, err := NewEnv("dacapo")
	if err != nil {
		return GIOPComparison{}, err
	}
	defer env.Close()
	buf := make([]byte, payload)

	plain := env.Object()
	extended := env.Client.Resolve(plain.Ref())
	req, err := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: 10_000, Max: qos.NoLimit, Min: 0})
	if err != nil {
		return GIOPComparison{}, err
	}
	if err := extended.SetQoSParameter(req); err != nil {
		return GIOPComparison{}, err
	}
	objs := [2]*orb.Object{plain, extended}
	// Warm up both bindings so connection setup is excluded, as in the
	// paper's steady-state response-time measurement.
	for _, obj := range objs {
		if err := Echo(obj, buf); err != nil {
			return GIOPComparison{}, err
		}
	}
	var samples [2][]time.Duration
	for _, v := range giopOrder(n, giopBlock) {
		start := time.Now()
		if err := Echo(objs[v], buf); err != nil {
			return GIOPComparison{}, err
		}
		samples[v] = append(samples[v], time.Since(start))
	}
	return GIOPComparison{Plain: summarize(samples[0]), QoS: summarize(samples[1])}, nil
}

// TransportPoint is one row of the E4 comparison.
type TransportPoint struct {
	Transport string
	Stats     RTStats
}

// RunTransportComparison measures echo RTT over each transport and the
// colocated shortcut.
func RunTransportComparison(n, payload int) ([]TransportPoint, error) {
	buf := make([]byte, payload)
	var out []TransportPoint
	for _, scheme := range []string{"tcp", "inproc", "dacapo"} {
		env, err := NewEnv(scheme)
		if err != nil {
			return nil, err
		}
		st, err := MeasureInvocationRT(env.Object(), buf, n)
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: transport %s: %w", scheme, err)
		}
		out = append(out, TransportPoint{Transport: scheme, Stats: st})
	}
	// Colocated: proxy and servant in the same ORB.
	env, err := NewEnv("inproc")
	if err != nil {
		return nil, err
	}
	st, err := MeasureInvocationRT(env.LocalObject(), buf, n)
	env.Close()
	if err != nil {
		return nil, fmt.Errorf("experiments: colocated: %w", err)
	}
	out = append(out, TransportPoint{Transport: "colocated", Stats: st})
	return out, nil
}
