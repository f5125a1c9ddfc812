// Negotiation: walks through every QoS negotiation scenario of the paper.
//
//   - Figure 3(ii): the server can satisfy the requested QoS and answers
//     with an ordinary GIOP Reply.
//   - Figure 3(i): the object implementation cannot satisfy the QoS and
//     NACKs with the standard CORBA exception mechanism (NO_RESOURCES).
//   - §4.3: the unilateral negotiation between the message layer and the
//     transport fails — Da CaPo cannot reserve resources, the client sees
//     an exception before any Request is sent.
//   - §4.1: per-binding versus per-method QoS — one setQoSParameter call
//     covers many invocations; changing it renegotiates the transport
//     connection.
//   - Invocation modes of the transport channel interface (§5.2): call,
//     send (oneway), defer/poll, notify (async) and cancel.
//
// Run with:
//
//	go run ./examples/negotiation
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	cool "cool"
	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/qos"
	"cool/internal/transport"
)

// sensor simulates a telemetry object with a limited service capability.
type sensor struct{}

func (sensor) RepoID() string { return "IDL:negotiation/Sensor:1.0" }

func (sensor) Invoke(inv *cool.Invocation) (cool.ReplyWriter, error) {
	switch inv.Operation {
	case "read":
		return func(enc *cdr.Encoder) {
			enc.WriteDouble(21.5)
			enc.WriteString(inv.QoS.String())
		}, nil
	case "calibrate":
		time.Sleep(20 * time.Millisecond)
		return nil, nil
	case "log":
		return nil, nil
	default:
		return nil, giop.BadOperation()
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays every scenario, writing the narration to out.
func run(out io.Writer) error {
	inner := transport.NewInprocManager()
	server := cool.NewORB(cool.WithName("sensor-host"), cool.WithTransport(inner))
	defer server.Shutdown()
	cool.EnableDaCaPo(server, cool.DaCaPoConfig{Inner: inner, BudgetKbps: 50_000})
	client := cool.NewORB(cool.WithName("console"), cool.WithTransport(inner))
	defer client.Shutdown()
	cool.EnableDaCaPo(client, cool.DaCaPoConfig{Inner: inner})

	if _, err := server.ListenOn("dacapo", ""); err != nil {
		return err
	}
	// The sensor object can serve at most 20 Mbit/s (bilateral bound).
	ref, err := server.RegisterServant(sensor{}, cool.WithCapability(qos.Capability{
		cool.Throughput: {Best: 20_000, Supported: true},
		cool.Latency:    {Best: 500, Supported: true},
	}))
	if err != nil {
		return err
	}
	obj := client.Resolve(ref)

	// setQoS validates with TryQoS (no panic on bad combinations — the
	// form to use when requirements come from config or user input) and
	// applies the set to the binding.
	setQoS := func(params ...cool.QoSParameter) error {
		req, err := cool.TryQoS(params...)
		if err != nil {
			return fmt.Errorf("invalid QoS request: %w", err)
		}
		return obj.SetQoSParameter(req)
	}

	read := func() (float64, string, error) {
		var v float64
		var served string
		err := obj.Invoke("read", nil, func(dec *cdr.Decoder) error {
			var err error
			if v, err = dec.ReadDouble(); err != nil {
				return err
			}
			served, err = dec.ReadString()
			return err
		})
		return v, served, err
	}

	fmt.Fprintln(out, "── scenario 1: Figure 3(ii) — request granted ──")
	if err := setQoS(cool.MinThroughput(10_000, 1_000)); err != nil {
		return err
	}
	v, served, err := read()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "   read %.1f°C, served at QoS %s\n", v, served)

	fmt.Fprintln(out, "── scenario 2: Figure 3(i) — object implementation NACKs ──")
	// 40 Mbit/s floor exceeds the sensor's 20 Mbit/s capability; the
	// transport can carry it, so the refusal comes from the server as a
	// NO_RESOURCES system exception in a Reply.
	if err := setQoS(cool.MinThroughput(45_000, 40_000)); err != nil {
		return err
	}
	if _, _, err = read(); err != nil {
		var se *giop.SystemException
		if errors.As(err, &se) && se.IsNACK() {
			fmt.Fprintln(out, "   NACK received:", se)
		} else {
			return fmt.Errorf("expected NACK, got %w", err)
		}
	}

	fmt.Fprintln(out, "── scenario 3: §4.3 — transport cannot reserve resources ──")
	// A floor beyond the 155 Mbit/s link: Da CaPo's unilateral negotiation
	// fails during binding, before any Request is sent.
	if err := setQoS(cool.MinThroughput(500_000, 400_000)); err != nil {
		return err
	}
	if _, _, err = read(); err != nil {
		fmt.Fprintln(out, "   binding failed:", err)
	}

	fmt.Fprintln(out, "── scenario 4: §4.1 — per-binding vs per-method QoS ──")
	// The NACKed binding of scenario 2 is torn down and its transport
	// reservation released asynchronously (the server observes the close);
	// give the release a moment before reserving again.
	time.Sleep(100 * time.Millisecond)
	if err := setQoS(cool.MinThroughput(5_000, 1_000)); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, _, err := read(); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "   3 invocations on one negotiated binding (per-binding QoS)")
	for i, kbps := range []uint32{2_000, 8_000, 16_000} {
		if err := setQoS(cool.MinThroughput(kbps, 1_000)); err != nil {
			return err
		}
		if _, _, err := read(); err != nil {
			return err
		}
		fmt.Fprintf(out, "   invocation %d renegotiated to %v (per-method QoS)\n", i+1, obj.GrantedQoS())
	}

	fmt.Fprintln(out, "── scenario 5: §5.2 — invocation modes call/send/defer/notify/cancel ──")
	// send: oneway.
	if err := obj.InvokeOneway("log", func(enc *cdr.Encoder) { enc.WriteString("fire and forget") }); err != nil {
		return err
	}
	fmt.Fprintln(out, "   send  : oneway log() dispatched")
	// defer + poll.
	p, err := obj.InvokeDeferred("read", nil)
	if err != nil {
		return err
	}
	for !p.Poll() {
		time.Sleep(time.Millisecond)
	}
	if err := p.Wait(nil); err != nil {
		return err
	}
	fmt.Fprintln(out, "   defer : reply polled and collected")
	// notify: async callback.
	done := make(chan struct{})
	err = obj.InvokeAsync("read", nil, func(dec *cdr.Decoder, err error) {
		if err == nil {
			v, _ := dec.ReadDouble()
			fmt.Fprintf(out, "   notify: callback got %.1f°C\n", v)
		}
		close(done)
	})
	if err != nil {
		return err
	}
	<-done
	// cancel: abandon a slow call.
	p, err = obj.InvokeDeferred("calibrate", nil)
	if err != nil {
		return err
	}
	if err := p.Cancel(); err != nil {
		return err
	}
	fmt.Fprintln(out, "   cancel: calibrate() abandoned, reply suppressed")
	return nil
}
