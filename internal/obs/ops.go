package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
)

// Ops bundles the observability state one process exposes over HTTP. Only
// Registry is required; nil Trace/Slow simply disable their endpoints'
// content. The handler is dependency-free (stdlib net/http only) and
// read-only: it never mutates ORB state beyond sampling runtime gauges
// into the registry at scrape time.
type Ops struct {
	Registry *Registry
	Trace    *TraceLog
	Slow     *SlowLog
}

// Handler returns the ops endpoint:
//
//	/metrics      text exposition of the registry snapshot plus sampled
//	              runtime gauges; ?prefix= filters metric names;
//	              ?format=json writes the same Snapshot as JSON (the
//	              structured form coolstat -watch diffs)
//	/trace        the TraceLog dump; ?trace=<16-hex-id> filters to one
//	              trace (exemplar lookup)
//	/trace/slow   the slow-call log
//	/debug/pprof  on-demand CPU/heap/goroutine profiles (net/http/pprof)
func (o Ops) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.serveMetrics)
	mux.HandleFunc("/trace", o.serveTrace)
	mux.HandleFunc("/trace/slow", o.serveSlow)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "cool ops endpoint\n/metrics\n/metrics?format=json\n/trace\n/trace/slow\n/debug/pprof/\n")
	})
	return mux
}

// SampleRuntime refreshes the runtime.* gauges in a registry: goroutine
// count, heap usage and the last GC pause. Called per /metrics scrape (it
// reads runtime.MemStats, too heavy for a hot path, cheap per scrape).
func SampleRuntime(r *Registry) {
	r.Gauge("runtime.goroutines").Set(int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("runtime.heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	r.Gauge("runtime.heap_objects").Set(int64(ms.HeapObjects))
	r.Gauge("runtime.gc_cycles").Set(int64(ms.NumGC))
	if ms.NumGC > 0 {
		r.Gauge("runtime.gc_last_pause_us").Set(int64(ms.PauseNs[(ms.NumGC+255)%256] / 1e3))
	}
}

func (o Ops) serveMetrics(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	format := q.Get("format")
	switch format {
	case "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	case "json":
		w.Header().Set("Content-Type", "application/json")
	default:
		http.Error(w, "unknown format (want json or none)", http.StatusBadRequest)
		return
	}
	if o.Registry == nil {
		return
	}
	SampleRuntime(o.Registry)
	s := o.Registry.Snapshot()
	if prefix := q.Get("prefix"); prefix != "" {
		s = filterSnapshot(s, prefix)
	}
	if format == "json" {
		// An encode error means the client went away; there is no one left
		// to tell.
		_ = json.NewEncoder(w).Encode(s)
		return
	}
	s.WriteText(w)
}

// filterSnapshot keeps only metrics whose name starts with prefix.
func filterSnapshot(s Snapshot, prefix string) Snapshot {
	out := Snapshot{Time: s.Time, Interval: s.Interval}
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if strings.HasPrefix(g.Name, prefix) {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, prefix) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

func (o Ops) serveTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if o.Trace == nil {
		fmt.Fprintln(w, "(no trace log installed)")
		return
	}
	want := r.URL.Query().Get("trace")
	if want == "" {
		fmt.Fprint(w, o.Trace.String())
		return
	}
	id, err := strconv.ParseUint(want, 16, 64)
	if err != nil {
		http.Error(w, "bad trace id (want 16 hex digits)", http.StatusBadRequest)
		return
	}
	matched := 0
	for _, e := range o.Trace.Events() {
		if e.Trace == TraceID(id) {
			fmt.Fprintln(w, e.String())
			matched++
		}
	}
	if matched == 0 {
		fmt.Fprintf(w, "(no retained events for trace %016x)\n", id)
	}
}

func (o Ops) serveSlow(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if o.Slow == nil {
		fmt.Fprintln(w, "(no slow-call log installed)")
		return
	}
	s := o.Slow.String()
	if s == "" {
		fmt.Fprintln(w, "(no slow calls recorded)")
		return
	}
	fmt.Fprint(w, s)
}
