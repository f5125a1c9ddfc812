package experiments

import (
	"errors"
	"fmt"
	"time"

	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/giop"
	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
)

// NegotiationPoint is one row of the E3 table.
type NegotiationPoint struct {
	Scenario string
	Stats    RTStats
}

// negotiationBlock is how many consecutive E3 samples the warm and the
// fresh scenario take in turn; a run can be as short as 10 of each.
const negotiationBlock = 1

// RunNegotiationScenarios measures E3: the cost of the Figure 3 paths.
//
//   - "granted (warm)": invocation on an already-negotiated binding.
//   - "NACK": an invocation the object implementation refuses; the cost of
//     learning the QoS is unavailable (includes connection setup because a
//     NACK tears the binding down).
//   - "per-binding": amortised cost when one setQoSParameter covers the
//     whole run.
//   - "per-method": alternating QoS before every invocation, paying a
//     transport reconfiguration each time (§4.1).
func RunNegotiationScenarios(n, payload int) ([]NegotiationPoint, error) {
	buf := make([]byte, payload)
	var out []NegotiationPoint

	// Servant capability for NACK: max 1 Mbit/s.
	capEnv, err := newCapEnv(qos.Capability{qos.Throughput: {Best: 1000, Supported: true}})
	if err != nil {
		return nil, err
	}
	defer capEnv.Close()

	granted, err := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: 500, Max: qos.NoLimit, Min: 100})
	if err != nil {
		return nil, err
	}
	obj := capEnv.Object()
	if err := obj.SetQoSParameter(granted); err != nil {
		return nil, err
	}

	// The per-method scenarios run on a fresh environment.
	env, err := NewEnv("dacapo")
	if err != nil {
		return nil, err
	}
	defer env.Close()

	// Warm invocations and fresh renegotiations are sampled in alternating
	// blocks (giopOrder), so drift of the host over the run falls on both
	// alike. A fresh renegotiation forces a real transport reconfiguration
	// each time: connection establishment plus Da CaPo configuration
	// signalling (§4.1's renegotiation cost). Warm-up excludes the warm
	// binding's connection setup, as in MeasureInvocationRT.
	if err := Echo(obj, buf); err != nil {
		return nil, fmt.Errorf("experiments: granted: %w", err)
	}
	objs := [2]*orb.Object{obj, env.Object()}
	names := [2]string{"granted (warm)", "per-method QoS (fresh)"}
	var paired [2][]time.Duration
	for _, v := range giopOrder(n, negotiationBlock) {
		if v == 1 {
			fresh, err := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: uint32(1000 + len(paired[1])), Max: qos.NoLimit, Min: 100})
			if err != nil {
				return nil, err
			}
			if err := objs[1].SetQoSParameter(fresh); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := Echo(objs[v], buf); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", names[v], err)
		}
		paired[v] = append(paired[v], time.Since(start))
	}
	out = append(out, NegotiationPoint{Scenario: names[0], Stats: summarize(paired[0])})

	// NACK path: floor above the servant capability. Every attempt pays
	// binding + negotiation + NACK.
	nack, err := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: 50_000, Max: qos.NoLimit, Min: 10_000})
	if err != nil {
		return nil, err
	}
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if err := obj.SetQoSParameter(nack); err != nil {
			return nil, err
		}
		start := time.Now()
		err := Echo(obj, buf)
		var se *giop.SystemException
		if !errors.As(err, &se) || !se.IsNACK() {
			return nil, fmt.Errorf("experiments: expected NACK, got %v", err)
		}
		samples = append(samples, time.Since(start))
		// Let the aborted reservation drain before the next attempt.
		time.Sleep(time.Millisecond)
	}
	out = append(out, NegotiationPoint{Scenario: "NACK (cold)", Stats: summarize(samples)})

	// Per-binding vs per-method cached.
	obj = env.Object()

	perBinding, err := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: 4000, Max: qos.NoLimit, Min: 100})
	if err != nil {
		return nil, err
	}
	if err := obj.SetQoSParameter(perBinding); err != nil {
		return nil, err
	}
	st, err := MeasureInvocationRT(obj, buf, n)
	if err != nil {
		return nil, fmt.Errorf("experiments: per-binding: %w", err)
	}
	out = append(out, NegotiationPoint{Scenario: "per-binding QoS", Stats: st})

	// Per-method, cache-friendly: alternate between two QoS sets. The ORB
	// caches one connection per (endpoint, QoS), so after the first two
	// invocations the renegotiation is a cache hit — the connection-cache
	// ablation.
	alt := make([]qos.Set, 2)
	for i := range alt {
		s, err := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: uint32(2000 + i*1000), Max: qos.NoLimit, Min: 100})
		if err != nil {
			return nil, err
		}
		alt[i] = s
	}
	samples = samples[:0]
	for i := 0; i < n; i++ {
		if err := obj.SetQoSParameter(alt[i%2]); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := Echo(obj, buf); err != nil {
			return nil, fmt.Errorf("experiments: per-method cached: %w", err)
		}
		samples = append(samples, time.Since(start))
	}
	out = append(out, NegotiationPoint{Scenario: "per-method QoS (cached)", Stats: summarize(samples)})

	out = append(out, NegotiationPoint{Scenario: names[1], Stats: summarize(paired[1])})
	return out, nil
}

// newCapEnv builds an Env whose servant advertises the given capability.
func newCapEnv(capability qos.Capability) (*Env, error) {
	env, err := NewEnv("dacapo")
	if err != nil {
		return nil, err
	}
	// Re-register a capability-limited echo servant.
	env.Server.Adapter().Deactivate([]byte("obj-1"))
	ref, err := env.Server.RegisterServant(echoServant{}, orb.WithCapability(capability))
	if err != nil {
		env.Close()
		return nil, err
	}
	env.obj = env.Client.Resolve(ref)
	return env, nil
}

// ConfigRow is one row of the E5 table: requirements in, protocol out.
type ConfigRow struct {
	Requirements string
	Spec         string
	Granted      string
	// DeliveredLossPct is the measured residual loss of 200 messages over
	// a 3%-lossy link through the configured stack (NaN when not
	// measured).
	DeliveredLossPct float64
	Measured         bool
}

// RunConfigTable exercises the configuration manager across representative
// requirement sets and measures delivered reliability on a lossy link.
func RunConfigTable() ([]ConfigRow, error) {
	link := netsim.Params{LossRate: 0.03, BandwidthKbps: 50_000, Seed: 11, QueueLen: 256}
	cases := []struct {
		name string
		req  qos.Set
	}{
		{"best effort", nil},
		{"reliable+ordered", mustSet(
			qos.Parameter{Type: qos.Reliability, Request: 0, Max: 0, Min: 0},
			qos.Parameter{Type: qos.Ordering, Request: 1, Max: 1, Min: 1},
		)},
		{"confidential", mustSet(
			qos.Parameter{Type: qos.Confidentiality, Request: 1, Max: 1, Min: 1},
		)},
		{"smooth 8 Mbit/s", mustSet(
			qos.Parameter{Type: qos.Throughput, Request: 8000, Max: qos.NoLimit, Min: 1000},
			qos.Parameter{Type: qos.Jitter, Request: 5000, Max: 20_000, Min: 0},
		)},
		{"loss-tolerant stream", mustSet(
			qos.Parameter{Type: qos.Throughput, Request: 20_000, Max: qos.NoLimit, Min: 5000},
			qos.Parameter{Type: qos.Reliability, Request: 50_000, Max: 100_000, Min: 0},
		)},
	}
	var out []ConfigRow
	for _, c := range cases {
		spec, granted, err := dacapo.Configure(c.req, link.Capability())
		if err != nil {
			return nil, fmt.Errorf("experiments: configure %s: %w", c.name, err)
		}
		row := ConfigRow{
			Requirements: c.name,
			Spec:         spec.String(),
			Granted:      granted.String(),
		}
		// Measure delivered loss through the configured stack.
		if lossPct, err := measureLoss(spec, link, 200); err == nil {
			row.DeliveredLossPct = lossPct
			row.Measured = true
		}
		out = append(out, row)
	}
	return out, nil
}

func mustSet(params ...qos.Parameter) qos.Set {
	s, err := qos.NewSet(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// measureLoss sends n small messages through the stack over the lossy link
// and reports the percentage that never arrived.
func measureLoss(spec dacapo.Spec, link netsim.Params, n int) (float64, error) {
	// Tighten ARQ timers for experiment speed.
	spec = cloneSpec(spec)
	for i := range spec.Modules {
		if spec.Modules[i].Name == "window" || spec.Modules[i].Name == "irq" {
			if spec.Modules[i].Args == nil {
				spec.Modules[i].Args = dacapo.Args{}
			}
			spec.Modules[i].Args["rto"] = "20ms"
		}
	}
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

	go func() {
		for i := 0; i < n; i++ {
			if err := sender.Send([]byte{byte(i), byte(i >> 8)}); err != nil {
				return
			}
		}
	}()
	received := 0
	deadline := time.After(15 * time.Second)
	idle := time.NewTimer(time.Second)
	defer idle.Stop()
	results := make(chan struct{}, n)
	go func() {
		for {
			if _, err := receiver.Recv(); err != nil {
				return
			}
			results <- struct{}{}
		}
	}()
recvLoop:
	for received < n {
		idle.Reset(time.Second)
		select {
		case <-results:
			received++
		case <-idle.C:
			break recvLoop // unreliable stack: losses are final
		case <-deadline:
			break recvLoop
		}
	}
	return float64(n-received) / float64(n) * 100, nil
}

func cloneSpec(s dacapo.Spec) dacapo.Spec {
	out := dacapo.Spec{Modules: make([]dacapo.ModuleSpec, len(s.Modules))}
	for i, m := range s.Modules {
		args := make(dacapo.Args, len(m.Args))
		for k, v := range m.Args {
			args[k] = v
		}
		out.Modules[i] = dacapo.ModuleSpec{Name: m.Name, Args: args}
	}
	return out
}
