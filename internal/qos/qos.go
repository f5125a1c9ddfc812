// Package qos implements the Quality-of-Service model of the MULTE/COOL
// prototype: typed QoS parameters attached to method invocations, the
// satisfiability rules used for bilateral negotiation between client and
// object implementation, and the capability descriptions transports and
// servers advertise.
//
// The wire representation follows the paper's extended GIOP Request header
// (Figure 2-ii):
//
//	struct QoSParameter {
//	    unsigned long param_type;
//	    unsigned long request_value;
//	    long          max_value;
//	    long          min_value;
//	};
//
// A client states a requested value together with the acceptable range
// [min, max]; a provider grants a value inside that range or refuses (the
// NACK of Figure 3-i). Calling conventions mirror the paper: setting QoS
// once at the start of a binding yields per-binding QoS, setting it before
// every invocation yields per-method QoS (§4.1).
package qos

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ParamType identifies a QoS dimension. Values are carried on the wire as
// unsigned long, so the set is open for extension; the constants below are
// the dimensions the MULTE project targets (low latency, high throughput,
// controlled delay jitter, §1) plus the protocol-function dimensions Da CaPo
// configures (reliability, ordering, confidentiality).
type ParamType uint32

const (
	// Throughput is the requested data rate in kilobits per second.
	// Higher is better.
	Throughput ParamType = iota + 1
	// Latency is the one-way delay bound in microseconds. Lower is better.
	Latency
	// Jitter is the delay-variation bound in microseconds. Lower is better.
	Jitter
	// Reliability is the residual packet-loss tolerance expressed as
	// acceptable loss per million packets. Lower is better; 0 requests a
	// fully reliable (acknowledged, retransmitting) protocol configuration.
	Reliability
	// Ordering requests in-order delivery: 1 = ordered, 0 = unordered.
	// Higher is better.
	Ordering
	// Confidentiality requests payload encryption: 1 = encrypted,
	// 0 = plaintext. Higher is better.
	Confidentiality
	// Priority is the relative scheduling priority of the binding (0..255).
	// Higher is better.
	Priority

	maxParamType = Priority
)

var paramNames = map[ParamType]string{
	Throughput:      "throughput",
	Latency:         "latency",
	Jitter:          "jitter",
	Reliability:     "reliability",
	Ordering:        "ordering",
	Confidentiality: "confidentiality",
	Priority:        "priority",
}

// String returns the lower-case dimension name, or a numeric form for
// unknown extension types.
func (t ParamType) String() string {
	if s, ok := paramNames[t]; ok {
		return s
	}
	return fmt.Sprintf("param(%d)", uint32(t))
}

var paramUnits = map[ParamType]string{
	Throughput:  "kbit/s",
	Latency:     "µs",
	Jitter:      "µs",
	Reliability: "loss/M",
}

// Unit returns the unit of measure of the dimension ("kbit/s", "µs",
// "loss/M"), or "" for dimensionless and unknown types (ordering,
// confidentiality and priority carry plain levels, not quantities).
func (t ParamType) Unit() string { return paramUnits[t] }

// Label returns the dimension name with its unit appended in parentheses,
// e.g. "latency(µs)" — the form used in metrics labels and trace logs.
func (t ParamType) Label() string {
	if u := t.Unit(); u != "" {
		return t.String() + "(" + u + ")"
	}
	return t.String()
}

// Known reports whether t is one of the predefined dimensions.
func (t ParamType) Known() bool { return t >= Throughput && t <= maxParamType }

// LowerIsBetter reports whether smaller values of this dimension denote
// stricter (better) service. Latency, jitter and loss bounds shrink as the
// service improves; throughput, ordering, confidentiality and priority grow.
func (t ParamType) LowerIsBetter() bool {
	switch t {
	case Latency, Jitter, Reliability:
		return true
	default:
		return false
	}
}

// Parameter is one QoS requirement, the Go form of the paper's QoSParameter
// struct. Request is what the client wants; Min and Max bound what it will
// accept. For LowerIsBetter dimensions Max is the loosest acceptable bound;
// for the others Min is the least acceptable value. A Max of NoLimit leaves
// the range open upward.
type Parameter struct {
	Type    ParamType
	Request uint32
	Max     int32
	Min     int32
}

// NoLimit in Max means "no upper bound stated".
const NoLimit int32 = -1

// Validate checks internal consistency of the parameter.
func (p Parameter) Validate() error {
	if p.Type == 0 {
		return errors.New("qos: parameter type 0 is reserved")
	}
	if p.Min < 0 {
		return fmt.Errorf("qos: %s: negative min %d", p.Type, p.Min)
	}
	if p.Max != NoLimit {
		if p.Max < p.Min {
			return fmt.Errorf("qos: %s: max %d < min %d", p.Type, p.Max, p.Min)
		}
		if int64(p.Request) > int64(p.Max) {
			return fmt.Errorf("qos: %s: request %d > max %d", p.Type, p.Request, p.Max)
		}
	}
	if int64(p.Request) < int64(p.Min) {
		return fmt.Errorf("qos: %s: request %d < min %d", p.Type, p.Request, p.Min)
	}
	return nil
}

// Accepts reports whether a granted value lies within this parameter's
// acceptable range.
func (p Parameter) Accepts(granted uint32) bool {
	if int64(granted) < int64(p.Min) {
		return false
	}
	if p.Max != NoLimit && int64(granted) > int64(p.Max) {
		return false
	}
	return true
}

//coollint:coldpath diagnostic formatting (slow-call log, ops endpoint)
func (p Parameter) String() string {
	max := "∞"
	if p.Max != NoLimit {
		max = fmt.Sprint(p.Max)
	}
	return fmt.Sprintf("%s=%d%s[%d..%s]", p.Type, p.Request, p.Type.Unit(), p.Min, max)
}

// Set is an ordered collection of parameters, at most one per dimension —
// the payload of setQoSParameter and of the qos_params Request field.
type Set []Parameter

// NewSet builds a Set from parameters, validating each and rejecting
// duplicate dimensions.
func NewSet(params ...Parameter) (Set, error) {
	seen := make(map[ParamType]bool, len(params))
	s := make(Set, 0, len(params))
	for _, p := range params {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if seen[p.Type] {
			return nil, fmt.Errorf("qos: duplicate parameter %s", p.Type)
		}
		seen[p.Type] = true
		s = append(s, p)
	}
	return s, nil
}

// Get returns the parameter for dimension t.
func (s Set) Get(t ParamType) (Parameter, bool) {
	for _, p := range s {
		if p.Type == t {
			return p, true
		}
	}
	return Parameter{}, false
}

// Value returns the requested value for dimension t, or def when absent.
func (s Set) Value(t ParamType, def uint32) uint32 {
	if p, ok := s.Get(t); ok {
		return p.Request
	}
	return def
}

// With returns a copy of s with p added or replaced.
func (s Set) With(p Parameter) Set {
	out := make(Set, 0, len(s)+1)
	replaced := false
	for _, q := range s {
		if q.Type == p.Type {
			out = append(out, p)
			replaced = true
		} else {
			out = append(out, q)
		}
	}
	if !replaced {
		out = append(out, p)
	}
	return out
}

// Clone returns a deep copy of s.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	out := make(Set, len(s)) //coollint:allocok deep copy by contract; callers cache the clone per binding
	copy(out, s)
	return out
}

// Validate checks every parameter and rejects duplicate dimensions. Sets
// hold at most one entry per QoS dimension (a handful), so duplicate
// detection is a quadratic scan, not a map: Validate runs inside
// Negotiate on the server dispatch path and must not allocate.
func (s Set) Validate() error {
	for i, p := range s {
		if err := p.Validate(); err != nil {
			return err
		}
		for _, q := range s[:i] {
			if q.Type == p.Type {
				return fmt.Errorf("qos: duplicate parameter %s", p.Type)
			}
		}
	}
	return nil
}

// Equal reports whether two sets contain the same parameters, ignoring
// order.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for _, p := range s {
		q, ok := o.Get(p.Type)
		if !ok || q != p {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the set, usable as a map key when
// caching connections per (endpoint, QoS) pair.
//
//coollint:coldpath connection-cache key, computed once per binding
func (s Set) Key() string {
	if len(s) == 0 {
		return ""
	}
	parts := make([]string, 0, len(s))
	var b []byte
	for _, p := range s {
		b = strconv.AppendUint(b[:0], uint64(p.Type), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(p.Request), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(p.Max), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(p.Min), 10)
		parts = append(parts, string(b))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

//coollint:coldpath diagnostic formatting (slow-call log, ops endpoint)
func (s Set) String() string {
	parts := make([]string, len(s))
	for i, p := range s {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Capability describes what a provider (a transport, a Da CaPo endpoint, or
// an object implementation) can deliver per dimension. Dimensions absent
// from the map are unconstrained for LowerIsBetter dimensions (any bound can
// be met only if ceil == 0 semantics are not wanted) — see Grant for the
// exact rules.
type Capability map[ParamType]Limit

// Limit bounds one dimension of a Capability. For higher-is-better
// dimensions Best is the largest value the provider can grant; for
// lower-is-better dimensions Best is the smallest bound it can honour.
type Limit struct {
	Best uint32
	// Supported marks the dimension as understood by the provider.
	// A provider granting QoS refuses requests for dimensions it does not
	// support when the request's Min demands more than the zero value.
	Supported bool
}

// Grant computes the value a provider with limit l can offer against
// request p, and whether the offer is acceptable to the requester.
func (l Limit) grant(p Parameter) (uint32, bool) {
	if !l.Supported {
		// An unsupported dimension delivers the zero (no-service) value:
		// 0 throughput, unbounded latency, plaintext, ... Acceptable only
		// when the requester's range includes "no service".
		if p.Type.LowerIsBetter() {
			// "No bound" is representable only as an unlimited max.
			return p.Request, p.Max == NoLimit
		}
		return 0, p.Accepts(0)
	}
	if p.Type.LowerIsBetter() {
		// Provider can honour any bound >= l.Best.
		if int64(p.Request) >= int64(l.Best) {
			return p.Request, true
		}
		// Relax toward the loosest bound the requester accepts.
		return l.Best, p.Accepts(l.Best)
	}
	// Higher is better: provider can grant up to l.Best.
	if int64(p.Request) <= int64(l.Best) {
		return p.Request, true
	}
	return l.Best, p.Accepts(l.Best)
}

// NegotiationError reports a failed QoS negotiation; it carries each
// dimension that could not be satisfied. It is mapped to the CORBA
// NO_RESOURCES system exception at the GIOP layer (the paper's NACK).
type NegotiationError struct {
	// Failed lists the dimensions that could not be granted within the
	// requester's acceptable range, with the provider's best offer.
	Failed []FailedParam
}

// FailedParam is one unsatisfiable dimension in a NegotiationError.
type FailedParam struct {
	Param Parameter
	Offer uint32
}

func (e *NegotiationError) Error() string {
	parts := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		parts[i] = fmt.Sprintf("%s (requested %v, best offer %d)", f.Param.Type, f.Param, f.Offer)
	}
	return "qos: negotiation failed: " + strings.Join(parts, "; ")
}

// Negotiate performs the provider side of the paper's bilateral negotiation:
// given a requested Set and the provider's Capability it returns the granted
// Set (one granted value per requested dimension) or a *NegotiationError
// when any dimension cannot be granted inside the requester's range.
//
// Negotiation is all-or-nothing, matching Figure 3: the server either
// processes the request at an acceptable QoS or NACKs.
func Negotiate(request Set, cap Capability) (Set, error) {
	if err := request.Validate(); err != nil {
		return nil, err
	}
	granted := make(Set, 0, len(request)) //coollint:allocok granted set escapes into the invocation; sized once below
	var failed []FailedParam
	for _, p := range request {
		offer, ok := cap[p.Type].grant(p)
		if !ok {
			failed = append(failed, FailedParam{Param: p, Offer: offer}) //coollint:allocok NACK collection, failure path
			continue
		}
		granted = append(granted, Parameter{Type: p.Type, Request: offer, Max: p.Max, Min: p.Min}) //coollint:allocok capacity reserved at entry; never grows
	}
	if len(failed) > 0 {
		return nil, &NegotiationError{Failed: failed} //coollint:allocok NACK failure path
	}
	return granted, nil
}

// Merge returns the weaker of two capabilities per dimension — the
// capability of a path through both providers (e.g. transport and server).
// Dimensions must be supported by both to remain supported.
func Merge(a, b Capability) Capability {
	out := make(Capability, len(a))
	for t, la := range a {
		lb, ok := b[t]
		if !ok || !la.Supported || !lb.Supported {
			continue
		}
		best := la.Best
		if t.LowerIsBetter() {
			if lb.Best > best {
				best = lb.Best
			}
		} else if lb.Best < best {
			best = lb.Best
		}
		out[t] = Limit{Best: best, Supported: true}
	}
	return out
}

// Unconstrained returns a capability that supports every known dimension at
// its ideal value (unbounded throughput, zero latency, ...). Useful for
// in-process transports and tests.
func Unconstrained() Capability {
	c := make(Capability, int(maxParamType))
	for t := Throughput; t <= maxParamType; t++ {
		best := uint32(0)
		if !t.LowerIsBetter() {
			best = ^uint32(0)
		}
		c[t] = Limit{Best: best, Supported: true}
	}
	return c
}
