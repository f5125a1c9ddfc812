package cool

import (
	"net"
	"net/http"

	"cool/internal/obs"
)

// OpsServer is a running ops HTTP endpoint; Close releases its listener.
type OpsServer struct {
	addr   string
	server *http.Server
}

// Addr returns the address the endpoint is listening on (useful with a
// ":0" request).
func (s *OpsServer) Addr() string { return s.addr }

// Close stops serving and releases the listener.
func (s *OpsServer) Close() error { return s.server.Close() }

// ServeOps starts the ORB's ops HTTP endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0") and returns the running server. The endpoint is
// dependency-free (stdlib net/http) and read-only:
//
//	/metrics      metrics snapshot in text exposition format, including
//	              sampled runtime gauges (goroutines, heap, GC pause) and
//	              histogram bucket exemplars (#<trace-id>); ?format=json
//	              serves the same snapshot as JSON (read by coolstat)
//	/trace        the TraceLog ring dump; ?trace=<16-hex-id> filters to one
//	              trace, resolving a histogram exemplar to its spans
//	/trace/slow   the slow-call log
//	/debug/pprof  CPU/heap/goroutine profiles on demand
//
// ServeOps installs a TraceLog on the ORB (via TraceLog) so /trace and
// exemplar lookups work out of the box. The server runs until Close. Its
// listener is its own, not the ORB's, so the endpoint keeps answering while
// the ORB drains and after it has shut down.
func ServeOps(addr string, o *ORB) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := obs.Ops{
		Registry: Metrics(o),
		Trace:    TraceLog(o),
		Slow:     o.SlowCalls(),
	}
	srv := &http.Server{Handler: h.Handler()}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return &OpsServer{addr: ln.Addr().String(), server: srv}, nil
}
