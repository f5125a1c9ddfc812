package dacapo

import (
	"errors"
	"fmt"

	"cool/internal/cdr"
	"cool/internal/qos"
	"cool/internal/transport"
)

// Connection signalling: before user data flows, the initiator ships the
// protocol configuration (Spec) and the requested QoS to the responder; the
// responder validates the spec against its module library, applies its
// admission policy and answers with the granted QoS or a rejection. Both
// sides then instantiate matching module stacks over the same channel —
// the connection-management duty of Da CaPo's management component.

const (
	sigMagic    = "DCP1"
	sigConfig   = byte(1)
	sigOK       = byte(2)
	sigReject   = byte(3)
	sigTeardown = byte(4)
)

// Signalling errors.
var (
	// ErrRejected reports that the responder refused the configuration or
	// the QoS (the unilateral negotiation failure surfaced to COOL, §4.3).
	ErrRejected = errors.New("dacapo: connection rejected by peer")
	// ErrBadSignal reports a malformed signalling message.
	ErrBadSignal = errors.New("dacapo: malformed signalling message")
)

// AcceptPolicy decides, on the responder, whether to accept a proposed
// configuration and what QoS to grant. Returning an error rejects the
// connection; the error text travels back to the initiator.
type AcceptPolicy func(spec Spec, requested qos.Set) (granted qos.Set, err error)

// AcceptAll grants exactly the requested QoS for any valid spec.
func AcceptAll(spec Spec, requested qos.Set) (qos.Set, error) {
	return requested, nil
}

func encodeSignal(kind byte, fn func(*cdr.Encoder)) []byte {
	enc := cdr.NewEncoder(cdr.BigEndian)
	enc.WriteOctets([]byte(sigMagic))
	enc.WriteOctet(kind)
	if fn != nil {
		fn(enc)
	}
	return enc.Bytes()
}

func decodeSignal(msg []byte) (byte, *cdr.Decoder, error) {
	if len(msg) < 5 || string(msg[:4]) != sigMagic {
		return 0, nil, ErrBadSignal
	}
	dec := cdr.NewDecoder(msg, cdr.BigEndian)
	dec.ReadOctets(5)
	return msg[4], dec, nil
}

// Connect performs the initiator side of connection setup over tch: it
// proposes spec and requested QoS, waits for the answer and, on success,
// returns a started runtime plus the granted QoS. Connect owns tch: on any
// failure it is closed, and a rejection wraps the peer's reason in
// ErrRejected.
func Connect(tch transport.Channel, reg *Registry, spec Spec, requested qos.Set) (rt *Runtime, granted qos.Set, err error) {
	defer func() {
		if err != nil {
			tch.Close()
		}
	}()
	if err := spec.Validate(reg); err != nil {
		return nil, nil, err
	}
	cfg := encodeSignal(sigConfig, func(enc *cdr.Encoder) {
		spec.Encode(enc)
		qos.EncodeSet(enc, requested)
	})
	if err := tch.WriteMessage(cfg); err != nil {
		return nil, nil, fmt.Errorf("dacapo: send config: %w", err)
	}
	answer, err := tch.ReadMessage()
	if err != nil {
		return nil, nil, fmt.Errorf("dacapo: read config answer: %w", err)
	}
	defer transport.PutBuffer(answer)
	kind, dec, err := decodeSignal(answer)
	if err != nil {
		return nil, nil, err
	}
	switch kind {
	case sigOK:
		granted, err = qos.DecodeSet(dec)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: granted qos: %v", ErrBadSignal, err)
		}
		rt, err = NewRuntime(spec, reg, tch)
		if err != nil {
			return nil, nil, err
		}
		if err := rt.Start(); err != nil {
			return nil, nil, err
		}
		return rt, granted, nil
	case sigReject:
		reason, rerr := dec.ReadString()
		if rerr != nil {
			reason = "(no reason)"
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrRejected, reason)
	default:
		return nil, nil, fmt.Errorf("%w: unexpected signal %d", ErrBadSignal, kind)
	}
}

// Accept performs the responder side of connection setup on an inbound
// channel: it reads the proposed configuration, validates it against the
// local module library, consults policy, and either instantiates the stack
// (returning the runtime and the granted QoS) or rejects. Accept owns tch:
// on any failure it is closed.
func Accept(tch transport.Channel, reg *Registry, policy AcceptPolicy) (rt *Runtime, granted qos.Set, err error) {
	defer func() {
		if err != nil {
			tch.Close()
		}
	}()
	if policy == nil {
		policy = AcceptAll
	}
	msg, err := tch.ReadMessage()
	if err != nil {
		return nil, nil, fmt.Errorf("dacapo: read config: %w", err)
	}
	defer transport.PutBuffer(msg)
	kind, dec, err := decodeSignal(msg)
	if err != nil {
		return nil, nil, err
	}
	if kind != sigConfig {
		return nil, nil, fmt.Errorf("%w: expected config, got %d", ErrBadSignal, kind)
	}
	spec, err := DecodeSpec(dec)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: spec: %v", ErrBadSignal, err)
	}
	requested, err := qos.DecodeSet(dec)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: qos: %v", ErrBadSignal, err)
	}

	reject := func(reason string) error {
		_ = tch.WriteMessage(encodeSignal(sigReject, func(enc *cdr.Encoder) {
			enc.WriteString(reason)
		}))
		return fmt.Errorf("%w: %s", ErrRejected, reason)
	}

	if err := spec.Validate(reg); err != nil {
		return nil, nil, reject(err.Error())
	}
	granted, err = policy(spec, requested)
	if err != nil {
		return nil, nil, reject(err.Error())
	}
	ok := encodeSignal(sigOK, func(enc *cdr.Encoder) {
		qos.EncodeSet(enc, granted)
	})
	if err := tch.WriteMessage(ok); err != nil {
		return nil, nil, fmt.Errorf("dacapo: send accept: %w", err)
	}
	rt, err = NewRuntime(spec, reg, tch)
	if err != nil {
		return nil, nil, err
	}
	// Mid-stream proposals go through the same admission policy as the
	// original bring-up.
	rt.SetReconfigPolicy(policy)
	if err := rt.Start(); err != nil {
		return nil, nil, err
	}
	return rt, granted, nil
}
