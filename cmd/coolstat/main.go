// Coolstat fetches the observability state of a running COOL process from
// its ops endpoint.
//
// A process that wants to be inspectable serves the ops endpoint:
//
//	ops, _ := cool.ServeOps("127.0.0.1:6060", o)
//
// Coolstat is a plain HTTP client of that endpoint and prints the remote
// metrics snapshot (and, with -trace or -slow, the remote trace and
// slow-call logs):
//
//	coolstat 127.0.0.1:6060            # metrics snapshot
//	coolstat -trace 127.0.0.1:6060     # snapshot + recent trace events
//	coolstat -slow 127.0.0.1:6060      # snapshot + slow-call log
//	coolstat -watch 1s 127.0.0.1:6060  # live delta view: rates and percentiles
//
// The endpoint has its own listener, outside the ORB it reports on, so
// coolstat keeps working while that ORB drains and after it has shut down.
//
// Watch mode polls the structured snapshot (/metrics?format=json), diffs
// consecutive snapshots with Delta, and renders per-interval counter rates
// and histogram p50/p95/p99 — a live view of whether QoS Latency bounds
// hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"cool/internal/obs"
)

const (
	// fetchTimeout bounds each request, so a stalled endpoint ends the run
	// with an error instead of hanging it.
	fetchTimeout = 10 * time.Second
	// maxBody caps what one response may hold. A metrics dump or a full
	// trace ring is far smaller; anything larger is not an ops endpoint.
	maxBody = 8 << 20
)

var client = &http.Client{Timeout: fetchTimeout}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coolstat:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("coolstat", flag.ContinueOnError)
	trace := fs.Bool("trace", false, "also fetch the remote trace log")
	slow := fs.Bool("slow", false, "also fetch the remote slow-call log")
	watch := fs.Duration("watch", 0, "poll interval for live delta view (0 = one-shot)")
	rounds := fs.Int("watch-rounds", 0, "stop watch mode after N rounds (0 = forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: coolstat [-trace] [-slow] [-watch d] [-watch-rounds n] ADDR")
	}
	base := "http://" + fs.Arg(0)

	if *watch > 0 {
		return watchLoop(w, base, *watch, *rounds)
	}

	sections := []struct {
		on           bool
		header, path string
	}{
		{true, "", "/metrics"},
		{*trace, "--- trace ---", "/trace"},
		{*slow, "--- slow calls ---", "/trace/slow"},
	}
	for _, s := range sections {
		if !s.on {
			continue
		}
		body, err := get(base + s.path)
		if err != nil {
			return err
		}
		if s.header != "" {
			fmt.Fprintln(w, s.header)
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// get fetches one URL. Everything that arrives is outside input: a non-2xx
// status is an error naming it, and a body over maxBody is refused.
func get(url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if len(body) > maxBody {
		return nil, fmt.Errorf("GET %s: response exceeds %d bytes", url, maxBody)
	}
	return body, nil
}

// snapshot fetches the structured metrics snapshot.
func snapshot(base string) (obs.Snapshot, error) {
	var s obs.Snapshot
	body, err := get(base + "/metrics?format=json")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return s, fmt.Errorf("decode snapshot: %w", err)
	}
	return s, nil
}

// watchLoop polls structured snapshots and renders the delta between
// consecutive polls: per-second counter rates and per-interval histogram
// percentiles. rounds == 0 loops until the remote disappears.
func watchLoop(w io.Writer, base string, interval time.Duration, rounds int) error {
	prev, err := snapshot(base)
	if err != nil {
		return err
	}
	for n := 0; rounds == 0 || n < rounds; n++ {
		time.Sleep(interval)
		cur, err := snapshot(base)
		if err != nil {
			return err
		}
		printDelta(w, cur.Delta(prev))
		prev = cur
	}
	return nil
}

// printDelta renders one watch round: active counters as rates, active
// histograms as rate + percentiles (+ tail exemplar when recorded).
func printDelta(w io.Writer, d obs.Snapshot) {
	fmt.Fprintf(w, "--- %s (interval %v) ---\n", d.Time.Format("15:04:05"), d.Interval.Round(time.Millisecond))
	quiet := true
	for _, c := range d.Counters {
		if c.Value == 0 {
			continue
		}
		quiet = false
		fmt.Fprintf(w, "%s %d rate=%.1f/s\n", c.Name, c.Value, d.Rate(c.Name))
	}
	for _, h := range d.Histograms {
		if h.Count == 0 {
			continue
		}
		quiet = false
		fmt.Fprintf(w, "%s count=%d p50=%d p95=%d p99=%d", h.Name, h.Count,
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		if ex := h.TailExemplar(); !ex.IsZero() {
			fmt.Fprintf(w, " tail#%s", ex)
		}
		fmt.Fprintln(w)
	}
	if quiet {
		fmt.Fprintln(w, "(idle)")
	}
}
