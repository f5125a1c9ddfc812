package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// Spans. Nothing inside the program is instrumented: every stamp below is
// taken in the benchmark's own code, at the points where it calls into a
// layer or a layer calls back into it. Spans stay in memory while the
// workload runs and are written out when it has stopped.

// layerReport carries per-layer metric values by name.
type layerReport map[string]float64

// span is one record of the trace file.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Request uint64 `json:"request"`
}

// The stamps of one traced echo invocation, in the order they are taken.
// The caller's goroutine writes the invoke, args and decode stamps, the
// server's dispatching goroutine the servant and reply-encode stamps; the
// request and the reply crossing the transport order the two.
const (
	stInvokeIn = iota
	stArgsIn
	stArgsOut
	stServantIn
	stServantOut
	stReplyEncIn
	stReplyEncOut
	stDecodeIn
	stDecodeOut
	stInvokeOut
	stCount
)

type echoSpan struct {
	id uint64
	t  [stCount]int64
}

// The children of "invoke", each from one stamp to a later one.
var echoChildren = []struct {
	name     string
	from, to int
}{
	{"client_pre", stInvokeIn, stArgsIn},
	{"args_encode", stArgsIn, stArgsOut},
	{"request_path", stArgsOut, stServantIn},
	{"servant", stServantIn, stServantOut},
	{"reply_encode", stReplyEncIn, stReplyEncOut},
	{"reply_path", stReplyEncOut, stDecodeIn},
	{"reply_decode", stDecodeIn, stDecodeOut},
	{"client_post", stDecodeOut, stInvokeOut},
}

// ringSize bounds the span records kept per caller; the most recent ones
// survive.
const ringSize = 1 << 13

// spanRings holds the echo span records, one ring per caller, indexed by
// operation id so the servant finds the record its caller opened.
type spanRings struct {
	rings [][]echoSpan
}

func newSpanRings(callers int, on bool) *spanRings {
	s := &spanRings{}
	if on {
		s.rings = make([][]echoSpan, callers)
		for i := range s.rings {
			s.rings[i] = make([]echoSpan, ringSize)
		}
	}
	return s
}

func (s *spanRings) slot(id uint64) *echoSpan {
	caller := id &^ tracedBit >> seqBits
	return &s.rings[caller][id&(ringSize-1)]
}

// complete reports whether every stamp of the record was taken, in order.
func (e *echoSpan) complete() bool {
	if e.id&tracedBit == 0 {
		return false
	}
	for i := 1; i < stCount; i++ {
		if e.t[i] < e.t[i-1] || e.t[i-1] == 0 {
			return false
		}
	}
	return true
}

// spans flattens the complete records into trace-file spans.
func (s *spanRings) spans() []span {
	var out []span
	for _, ring := range s.rings {
		for i := range ring {
			e := &ring[i]
			if !e.complete() {
				continue
			}
			req := e.id &^ tracedBit
			out = append(out, span{Name: "invoke", Start: e.t[stInvokeIn], End: e.t[stInvokeOut], Request: req})
			for _, c := range echoChildren {
				out = append(out, span{Name: c.name, Start: e.t[c.from], End: e.t[c.to], Parent: "invoke", Request: req})
			}
		}
	}
	return out
}

// reportSpans reduces spans to medians of self time: "span.<name>_ns" for a
// leaf, whose self time is its duration, and "span.<name>_self_ns" for a
// span with children, whose self time is its duration minus theirs.
func reportSpans(spans []span, lr layerReport) {
	if len(spans) == 0 {
		return
	}
	type key struct {
		req  uint64
		name string
	}
	children := make(map[key]int64)
	parents := make(map[string]bool)
	for _, sp := range spans {
		if sp.Parent != "" {
			children[key{sp.Request, sp.Parent}] += sp.End - sp.Start
			parents[sp.Parent] = true
		}
	}
	self := make(map[string][]float64)
	for _, sp := range spans {
		d := sp.End - sp.Start - children[key{sp.Request, sp.Name}]
		self[sp.Name] = append(self[sp.Name], float64(d))
	}
	for name, v := range self {
		metric := "span." + name + "_ns"
		if parents[name] {
			metric = "span." + name + "_self_ns"
		}
		lr[metric] = median(v)
	}
}

// maxFileSpans bounds the trace file; the latest spans are kept.
const maxFileSpans = 40_000

// writeTrace writes the spans of one traced workload to dir/trace.json.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if len(spans) > maxFileSpans {
		spans = spans[len(spans)-maxFileSpans:]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{workload, seed, "ns since the benchmark process started, monotonic", spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// spanSink is the in-memory span store of the workloads that stamp whole
// calls from a single goroutine (streams, renegotiation): a ring of the
// most recent spans, allocated before the workload runs.
type spanSink struct {
	ring []span
	n    int
}

func newSpanSink(on bool) *spanSink {
	s := &spanSink{}
	if on {
		s.ring = make([]span, 1<<15)
	}
	return s
}

func (s *spanSink) add(name string, start, end int64, parent string, req uint64) {
	s.ring[s.n%len(s.ring)] = span{Name: name, Start: start, End: end, Parent: parent, Request: req}
	s.n++
}

func (s *spanSink) spans() []span {
	if s.n < len(s.ring) {
		return s.ring[:s.n]
	}
	return s.ring
}
