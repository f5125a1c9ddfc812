// Package cool is a from-scratch Go reproduction of the QoS-enabled COOL
// Object Request Broker described in:
//
//	Tom Kristensen, Thomas Plagemann: "Enabling Flexible QoS Support in
//	the Object Request Broker COOL", ICDCS 2000 (the MULTE project).
//
// It provides a CORBA-style ORB (GIOP message layer over a generic
// transport layer, object adapter, IDL compiler) extended with the paper's
// three QoS mechanisms — per-invocation QoS specification via
// SetQoSParameter, bilateral client/server negotiation in an extended GIOP,
// and unilateral negotiation between the message layer and a QoS-capable
// transport — plus a full reimplementation of the Da CaPo flexible protocol
// system used as that transport.
//
// This package is the facade: it re-exports the user-facing types of the
// internal packages and adds convenience constructors. Typical use:
//
//	o := cool.NewORB()
//	addr, _ := o.ListenOn("tcp", "127.0.0.1:0")
//	ref, _ := o.RegisterServant(myServant)
//	fmt.Println(cool.RefString(ref)) // hand to clients
//
//	client := cool.NewORB()
//	obj, _ := client.ResolveString(iorString)
//	obj.SetQoSParameter(cool.QoS(cool.MinThroughput(5000, 1000)))
//	err := obj.Invoke("op", encodeArgs, decodeReply)
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory.
package cool

import (
	"cool/internal/coolproto"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/ior"
	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
	"cool/internal/transport"
)

// Core ORB types.
type (
	// ORB is a COOL Object Request Broker instance.
	ORB = orb.ORB
	// Object is a client proxy with the paper's SetQoSParameter method.
	Object = orb.Object
	// Servant is an object implementation (what skeletons wrap).
	Servant = orb.Servant
	// Invocation is one decoded request delivered to a servant.
	Invocation = orb.Invocation
	// ReplyWriter encodes a servant's results.
	ReplyWriter = orb.ReplyWriter
	// UserError raises an IDL-declared exception from a servant.
	UserError = orb.UserError
	// Pending is an in-flight deferred invocation (defer/poll/cancel).
	Pending = orb.Pending

	// Ref is an object reference; RefString gives its stringified form.
	Ref = ior.Ref

	// QoSParameter mirrors the paper's QoSParameter struct.
	QoSParameter = qos.Parameter
	// QoSSet is an ordered set of QoS parameters.
	QoSSet = qos.Set
	// Capability describes what a provider can deliver per dimension.
	Capability = qos.Capability
)

// QoS dimensions (see qos.ParamType for units).
const (
	Throughput      = qos.Throughput
	Latency         = qos.Latency
	Jitter          = qos.Jitter
	Reliability     = qos.Reliability
	Ordering        = qos.Ordering
	Confidentiality = qos.Confidentiality
	Priority        = qos.Priority

	// NoLimit leaves a parameter's upper bound open.
	NoLimit = qos.NoLimit
)

// NewORB creates an ORB with the tcp and inproc transports registered and
// both message protocols of the generic message layer available: GIOP (the
// default) and the proprietary COOL protocol ("cool"), selectable per
// endpoint via ListenOnProtocol. Options: WithName, WithTransport,
// WithPrincipal, WithMessageProtocol, WithDrainTimeout.
func NewORB(opts ...orb.Option) *ORB {
	all := make([]orb.Option, 0, len(opts)+1)
	all = append(all, orb.WithMessageProtocol(coolproto.Codec{}))
	all = append(all, opts...)
	return orb.New(all...)
}

// Re-exported ORB options.
var (
	WithName           = orb.WithName
	WithTransport      = orb.WithTransport
	WithPrincipal      = orb.WithPrincipal
	WithDrainTimeout   = orb.WithDrainTimeout
	WithCapability     = orb.WithCapability
	WithKey            = orb.WithKey
	WithInlineDispatch = orb.WithInlineDispatch
	// WithSlowCallThreshold is re-exported in stats.go next to the other
	// observability surface.
)

// RefString returns the stringified ("IOR:…") form of a reference.
func RefString(r Ref) string { return ior.Marshal(r) }

// ParseRef parses a stringified reference.
func ParseRef(s string) (Ref, error) { return ior.Unmarshal(s) }

// QoS builds a validated QoS set from parameters; it panics on invalid
// combinations, which are programming errors in the caller. Use TryQoS
// when the parameters come from configuration or user input.
func QoS(params ...QoSParameter) QoSSet {
	s, err := qos.NewSet(params...)
	if err != nil {
		panic("cool: invalid QoS set: " + err.Error())
	}
	return s
}

// TryQoS builds a validated QoS set from parameters, returning the
// validation error instead of panicking.
func TryQoS(params ...QoSParameter) (QoSSet, error) {
	return qos.NewSet(params...)
}

// MinThroughput requests `want` kbit/s and accepts down to `atLeast`.
func MinThroughput(want, atLeast uint32) QoSParameter {
	return QoSParameter{Type: Throughput, Request: want, Max: NoLimit, Min: int32(atLeast)}
}

// MaxLatency requests a one-way delay bound of `want` µs, accepting up to
// `atMost`.
func MaxLatency(want, atMost uint32) QoSParameter {
	return QoSParameter{Type: Latency, Request: want, Max: int32(atMost), Min: 0}
}

// MaxJitter requests a delay-variation bound of `want` µs, accepting up to
// `atMost`.
func MaxJitter(want, atMost uint32) QoSParameter {
	return QoSParameter{Type: Jitter, Request: want, Max: int32(atMost), Min: 0}
}

// Reliable demands fully reliable, ordered delivery.
func Reliable() []QoSParameter {
	return []QoSParameter{
		{Type: Reliability, Request: 0, Max: 0, Min: 0},
		{Type: Ordering, Request: 1, Max: 1, Min: 1},
	}
}

// Encrypted demands payload confidentiality.
func Encrypted() QoSParameter {
	return QoSParameter{Type: Confidentiality, Request: 1, Max: 1, Min: 1}
}

// DaCaPoConfig configures EnableDaCaPo.
type DaCaPoConfig struct {
	// Inner is the T service Da CaPo runs over; nil selects a fresh
	// in-process transport (useful for single-host demos and tests).
	Inner transport.Manager
	// BudgetKbps is the endpoint's bandwidth budget for admission control;
	// 0 means unlimited.
	BudgetKbps uint32
	// MaxConns caps concurrent QoS connections; 0 means unlimited.
	MaxConns int
	// Link describes the raw network the inner transport traverses; nil
	// selects the paper's 155 Mbit/s ATM-like profile.
	Link Capability
}

// EnableDaCaPo registers the Da CaPo transport (scheme "dacapo") with the
// ORB, making QoS bindings possible, and returns the manager.
func EnableDaCaPo(o *ORB, cfg DaCaPoConfig) *dacapo.Manager {
	inner := cfg.Inner
	if inner == nil {
		inner = transport.NewInprocManager()
	}
	link := cfg.Link
	if link == nil {
		link = netsim.LAN().Capability()
	}
	m := dacapo.NewManager(
		inner,
		modules.NewLibrary(),
		dacapo.NewResourceManager(cfg.BudgetKbps, cfg.MaxConns),
		link,
	)
	m.Instrument(o.Metrics(), o.Tracer())
	o.Transports().Register(m)
	return m
}
