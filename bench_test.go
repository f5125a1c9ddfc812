// Benchmarks regenerating the paper's evaluation (one per table/figure;
// see DESIGN.md §4 and EXPERIMENTS.md):
//
//	BenchmarkFig9              — E1: Da CaPo throughput per packet size ×
//	                             protocol configuration (MB/s column).
//	BenchmarkGIOPInvocation    — E2: GIOP 1.0 vs QoS-extended 9.9 response
//	                             time (ns/op).
//	BenchmarkNegotiation       — E3: Figure 3 negotiation scenarios.
//	BenchmarkTransport         — E4: invocation latency per transport.
//	BenchmarkRequestMarshal    — E6: qos_params marshalling cost.
//
// Run with: go test -bench=. -benchmem .
package cool_test

import (
	"errors"
	"fmt"
	"testing"

	"cool"
	"cool/internal/cdr"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/experiments"
	"cool/internal/giop"
	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
)

// BenchmarkFig9 reproduces Figure 9: goodput through Da CaPo protocol
// stacks over the simulated 155 Mbit/s link. Compare the MB/s column
// across configurations and packet sizes.
func BenchmarkFig9(b *testing.B) {
	sizes := []int{1 << 10, 16 << 10, 64 << 10}
	for _, cfg := range experiments.Fig9Configs() {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("%s/pkt=%s", cfg.Name, experiments.FormatSize(size)), func(b *testing.B) {
				link := netsim.NewLink(experiments.Fig9Link())
				defer link.Close()
				ea, eb := link.Endpoints()
				reg := modules.NewLibrary()
				sender, err := dacapo.NewRuntime(cfg.Spec, reg, ea)
				if err != nil {
					b.Fatal(err)
				}
				receiver, err := dacapo.NewRuntime(cfg.Spec, reg, eb)
				if err != nil {
					b.Fatal(err)
				}
				if err := sender.Start(); err != nil {
					b.Fatal(err)
				}
				if err := receiver.Start(); err != nil {
					b.Fatal(err)
				}
				defer sender.Close()
				defer receiver.Close()

				payload := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				errc := make(chan error, 1)
				go func() {
					for i := 0; i < b.N; i++ {
						if err := sender.Send(payload); err != nil {
							errc <- err
							return
						}
					}
					errc <- nil
				}()
				for i := 0; i < b.N; i++ {
					if _, err := receiver.Recv(); err != nil {
						b.Fatal(err)
					}
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkGIOPInvocation reproduces E2: remote echo invocations with the
// original GIOP 1.0 and the QoS-extended GIOP 9.9 over the same Da CaPo
// transport. The paper reports no measurable difference.
func BenchmarkGIOPInvocation(b *testing.B) {
	payload := make([]byte, 1024)
	run := func(b *testing.B, set qos.Set) {
		env, err := experiments.NewEnv("dacapo")
		if err != nil {
			b.Fatal(err)
		}
		defer env.Close()
		obj := env.Object()
		if set != nil {
			if err := obj.SetQoSParameter(set); err != nil {
				b.Fatal(err)
			}
		}
		if err := experiments.Echo(obj, payload); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := experiments.Echo(obj, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("GIOP1.0", func(b *testing.B) { run(b, nil) })
	b.Run("GIOP9.9-qos", func(b *testing.B) {
		set, err := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: 10_000, Max: qos.NoLimit, Min: 0})
		if err != nil {
			b.Fatal(err)
		}
		run(b, set)
	})
}

// BenchmarkNegotiation reproduces E3: the cost of the Figure 3 scenarios.
func BenchmarkNegotiation(b *testing.B) {
	payload := make([]byte, 256)

	b.Run("granted-warm", func(b *testing.B) {
		env, err := experiments.NewEnv("dacapo")
		if err != nil {
			b.Fatal(err)
		}
		defer env.Close()
		obj := env.Object()
		set, _ := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: 500, Max: qos.NoLimit, Min: 100})
		if err := obj.SetQoSParameter(set); err != nil {
			b.Fatal(err)
		}
		if err := experiments.Echo(obj, payload); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := experiments.Echo(obj, payload); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("renegotiate-fresh", func(b *testing.B) {
		env, err := experiments.NewEnv("dacapo")
		if err != nil {
			b.Fatal(err)
		}
		defer env.Close()
		obj := env.Object()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set, _ := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: uint32(1000 + i), Max: qos.NoLimit, Min: 100})
			if err := obj.SetQoSParameter(set); err != nil {
				b.Fatal(err)
			}
			if err := experiments.Echo(obj, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransport reproduces E4: 1 KiB echo latency per transport plus
// the colocated shortcut.
func BenchmarkTransport(b *testing.B) {
	payload := make([]byte, 1024)
	for _, scheme := range []string{"tcp", "inproc", "dacapo"} {
		b.Run(scheme, func(b *testing.B) {
			env, err := experiments.NewEnv(scheme)
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			obj := env.Object()
			if err := experiments.Echo(obj, payload); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := experiments.Echo(obj, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("colocated", func(b *testing.B) {
		env, err := experiments.NewEnv("inproc")
		if err != nil {
			b.Fatal(err)
		}
		defer env.Close()
		obj := env.LocalObject()
		if err := experiments.Echo(obj, payload); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := experiments.Echo(obj, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRequestMarshal reproduces E6: encode+decode cost of Request
// messages with and without the qos_params extension.
func BenchmarkRequestMarshal(b *testing.B) {
	mkQoS := func(n int) qos.Set {
		var s qos.Set
		for i := 0; i < n; i++ {
			s = append(s, qos.Parameter{Type: qos.Throughput, Request: uint32(i + 1), Max: qos.NoLimit})
		}
		return s
	}
	variants := []struct {
		name    string
		version giop.Version
		nqos    int
	}{
		{"GIOP1.0", giop.V1_0, 0},
		{"GIOP9.9-0params", giop.VQoS, 0},
		{"GIOP9.9-2params", giop.VQoS, 2},
		{"GIOP9.9-4params", giop.VQoS, 4},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			hdr := &giop.RequestHeader{
				RequestID:        1,
				ResponseExpected: true,
				ObjectKey:        []byte("object-key-0001"),
				Operation:        "getFrame",
				QoS:              mkQoS(v.nqos),
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame, err := giop.MarshalRequest(v.version, cdr.BigEndian, hdr, nil)
				if err != nil {
					b.Fatal(err)
				}
				m, err := giop.UnmarshalPooled(frame)
				if err != nil {
					b.Fatal(err)
				}
				giop.ReleaseMessage(m) // recycles the message and the frame
			}
		})
	}
}

// BenchmarkNACK measures the full abort path: bind, negotiate, NACK, tear
// down (part of E3).
func BenchmarkNACK(b *testing.B) {
	inner, err := experiments.NewEnv("dacapo")
	if err != nil {
		b.Fatal(err)
	}
	defer inner.Close()
	// Servant with a 1 Mbit/s ceiling.
	inner.Server.Adapter().Deactivate([]byte("obj-1"))
	ref, err := inner.Server.RegisterServant(nackServant{},
		orb.WithCapability(qos.Capability{qos.Throughput: {Best: 1000, Supported: true}}))
	if err != nil {
		b.Fatal(err)
	}
	obj := inner.Client.Resolve(ref)
	set, _ := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: 50_000, Max: qos.NoLimit, Min: 10_000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obj.SetQoSParameter(set); err != nil {
			b.Fatal(err)
		}
		err := experiments.Echo(obj, nil)
		var se *giop.SystemException
		if !errors.As(err, &se) || !se.IsNACK() {
			b.Fatalf("expected NACK, got %v", err)
		}
	}
}

type nackServant struct{}

func (nackServant) RepoID() string { return "IDL:experiments/Echo:1.0" }

func (nackServant) Invoke(inv *orb.Invocation) (orb.ReplyWriter, error) {
	msg, err := inv.Args.ReadOctetSeq()
	if err != nil {
		return nil, giop.MarshalException()
	}
	out := append([]byte(nil), msg...)
	return func(enc *cdr.Encoder) { enc.WriteOctetSeq(out) }, nil
}

// BenchmarkObsOverhead measures the cost of the observability layer on the
// invocation path: metrics are always on (atomic counters + histogram
// observe per call), so the baseline/observer pair isolates the extra cost
// of span events flowing to an installed observer (ring-buffer TraceLog).
// The acceptance bar is <= 5% overhead for the observer variant.
func BenchmarkObsOverhead(b *testing.B) {
	payload := make([]byte, 1024)
	run := func(b *testing.B, withObserver bool) {
		env, err := experiments.NewEnv("inproc")
		if err != nil {
			b.Fatal(err)
		}
		defer env.Close()
		if withObserver {
			cool.TraceLog(env.Client)
			cool.TraceLog(env.Server)
		}
		obj := env.Object()
		if err := experiments.Echo(obj, payload); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := experiments.Echo(obj, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("metrics-only", func(b *testing.B) { run(b, false) })
	b.Run("metrics+observer", func(b *testing.B) { run(b, true) })
}

// BenchmarkModuleHop isolates the per-module cost behind Figure 9's
// "0→40 dummy modules ≈ free" claim: one small message through stacks of
// increasing depth over an undelayed loopback, so the difference per row
// is purely module-interface and queue-hop overhead.
func BenchmarkModuleHop(b *testing.B) {
	for _, n := range []int{0, 1, 10, 40} {
		b.Run(fmt.Sprintf("dummies=%d", n), func(b *testing.B) {
			var spec dacapo.Spec
			for i := 0; i < n; i++ {
				spec.Modules = append(spec.Modules, dacapo.ModuleSpec{Name: "dummy"})
			}
			link := netsim.NewLink(netsim.Loopback())
			defer link.Close()
			ea, eb := link.Endpoints()
			reg := modules.NewLibrary()
			sender, err := dacapo.NewRuntime(spec, reg, ea)
			if err != nil {
				b.Fatal(err)
			}
			receiver, err := dacapo.NewRuntime(spec, reg, eb)
			if err != nil {
				b.Fatal(err)
			}
			if err := sender.Start(); err != nil {
				b.Fatal(err)
			}
			if err := receiver.Start(); err != nil {
				b.Fatal(err)
			}
			defer sender.Close()
			defer receiver.Close()
			msg := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sender.Send(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := receiver.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
