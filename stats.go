package cool

import (
	"cool/internal/obs"
	"cool/internal/orb"
)

// Observability facade: every ORB carries a metric registry and a span
// tracer (see internal/obs); these helpers expose them without importing
// the internal package.
type (
	// MetricsRegistry is an ORB's metric registry (counters, gauges,
	// latency histograms). Use Snapshot for a frozen view and
	// Snapshot().Text() for the text exposition format.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a frozen, sorted view of a registry.
	MetricsSnapshot = obs.Snapshot
	// TraceRecorder is a ring buffer of recent observability events
	// (spans, QoS negotiation outcomes, Da CaPo admission decisions).
	TraceRecorder = obs.TraceLog
	// TraceEvent is one structured observability event.
	TraceEvent = obs.Event
	// Observer receives structured events from an ORB; install one with
	// (*ORB).SetObserver.
	Observer = obs.Observer
)

// WithSlowCallThreshold sets a latency floor above which invocations are
// recorded in the slow-call log even without a QoS Latency bound.
var WithSlowCallThreshold = orb.WithSlowCallThreshold

// mTraceLogDropped counts TraceLog ring evictions (spans lost unread).
const mTraceLogDropped = "obs.tracelog.dropped"

// Metrics returns the ORB's metric registry. Metrics are always collected
// (cheap atomics); this is the read side.
func Metrics(o *ORB) *MetricsRegistry { return o.Metrics() }

// TraceLog installs (idempotently) a ring-buffer event recorder on the ORB
// and returns it. When another observer is already installed, events fan
// out to both.
func TraceLog(o *ORB) *TraceRecorder {
	if l, ok := o.Tracer().Observer().(*obs.TraceLog); ok {
		return l
	}
	l := obs.NewTraceLog(0)
	// Ring evictions surface as a counter so silent span loss shows up in
	// snapshots (and coolstat) next to the metrics the spans explain.
	l.SetDroppedCounter(o.Metrics().Counter(mTraceLogDropped))
	o.SetObserver(obs.Fanout(o.Tracer().Observer(), l))
	return l
}

// SlowCalls returns the ORB's slow-call log: a bounded ring of invocations
// that exceeded their QoS Latency bound or the WithSlowCallThreshold
// configuration (see the README "Observability" section).
func SlowCalls(o *ORB) *obs.SlowLog { return o.SlowCalls() }
