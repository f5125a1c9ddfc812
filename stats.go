package cool

import (
	"cool/internal/cdr"
	"cool/internal/giop"
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

// StatsRepoID is the repository id of the built-in stats servant.
const StatsRepoID = "IDL:cool/Stats:1.0"

// StatsServant exposes an ORB's observability state as a CORBA object, so
// tools (cmd/coolstat) can fetch a metrics snapshot from a running process
// through the ORB itself. Operations:
//
//	snapshot()     -> string   the metrics snapshot in text exposition format
//	snapshot_bin() -> octets   the snapshot in CDR wire form (see
//	                           snapshotwire.go) for delta/percentile-aware
//	                           clients such as coolstat -watch
//	trace()        -> string   recent events from the ORB's TraceLog ("" when
//	                           no TraceLog observer is installed)
//	slow()         -> string   the slow-call log, one record per line
type StatsServant struct {
	orb *ORB
}

// NewStatsServant returns a stats servant for the given ORB; register it
// with the same (or any) ORB's RegisterServant.
func NewStatsServant(o *ORB) *StatsServant { return &StatsServant{orb: o} }

// RepoID implements Servant.
func (s *StatsServant) RepoID() string { return StatsRepoID }

// StatsClient is the typed stub for a remote StatsServant; cmd/coolstat is
// its command-line front end.
type StatsClient struct{ obj *Object }

// NewStatsClient wraps a resolved reference to a StatsServant.
func NewStatsClient(obj *Object) *StatsClient { return &StatsClient{obj: obj} }

// Snapshot fetches the remote ORB's metrics snapshot in text form.
func (c *StatsClient) Snapshot() (string, error) { return c.call("snapshot") }

// Trace fetches the remote ORB's recent trace events ("" when the remote
// has no TraceLog installed).
func (c *StatsClient) Trace() (string, error) { return c.call("trace") }

// Slow fetches the remote ORB's slow-call log, one record per line.
func (c *StatsClient) Slow() (string, error) { return c.call("slow") }

// SnapshotData fetches the remote ORB's metrics snapshot in structured
// form, suitable for Delta/Rate/Quantile computations (coolstat -watch).
func (c *StatsClient) SnapshotData() (MetricsSnapshot, error) {
	var s MetricsSnapshot
	err := c.obj.Invoke("snapshot_bin", nil, func(dec *cdr.Decoder) error {
		body, err := dec.ReadEncapsulation()
		if err != nil {
			return err
		}
		s, err = decodeSnapshot(body)
		return err
	})
	return s, err
}

func (c *StatsClient) call(op string) (string, error) {
	var out string
	err := c.obj.Invoke(op, nil, func(dec *cdr.Decoder) error {
		var err error
		out, err = dec.ReadString()
		return err
	})
	return out, err
}

// Invoke implements Servant.
func (s *StatsServant) Invoke(inv *Invocation) (ReplyWriter, error) {
	switch inv.Operation {
	case "snapshot":
		text := s.orb.Metrics().Snapshot().Text()
		return func(enc *cdr.Encoder) { enc.WriteString(text) }, nil
	case "snapshot_bin":
		snap := s.orb.Metrics().Snapshot()
		return func(enc *cdr.Encoder) {
			enc.WriteEncapsulation(cdr.EncodeEncapsulation(cdr.BigEndian, func(e *cdr.Encoder) {
				encodeSnapshot(e, snap)
			}))
		}, nil
	case "trace":
		text := ""
		if l, ok := s.orb.Tracer().Observer().(*obs.TraceLog); ok {
			text = l.String()
		}
		return func(enc *cdr.Encoder) { enc.WriteString(text) }, nil
	case "slow":
		text := s.orb.SlowCalls().String()
		return func(enc *cdr.Encoder) { enc.WriteString(text) }, nil
	default:
		return nil, giop.BadOperation()
	}
}
