package main

import (
	"fmt"

	cool "cool"
)

// workload is one named set of inputs. Every workload is a closed loop: a
// synchronous CORBA caller waits for its reply, and the stream sender is
// paced by the stack's back-pressure.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json
	// load describes callers, sizes and the path traffic takes, for the
	// report.
	load string
	// recorders is the number of goroutines that record samples or
	// failures.
	recorders int
	// payload is the verified application payload of one operation, in
	// octets: what goodput_mbit_s counts.
	payload int
	start   func(*config) (instance, error)
	path    path
	// underLoad checks, on a full-size run, that the load made the
	// workload's mechanism work; how hard a mechanism works depends on
	// speed, so the smoke test leaves it out.
	underLoad func(layerReport) error
}

const (
	loopbackTCP = "traffic crosses the host's loopback TCP; no link rate is claimed"
	inProcess   = "traffic crosses the in-process transport; no link rate is claimed"
)

func echoQoS() cool.QoSSet {
	return cool.QoS(cool.MinThroughput(10_000, 1_000), cool.Encrypted())
}

// The rows one echo invocation pays wherever it runs.
func echoUses(extra map[string]float64) map[string]float64 {
	uses := map[string]float64{
		"cdr.octetseq_codec_ns": 2, // request arguments and reply results, each encoded and decoded
		"giop.request_codec_ns": 1,
		"giop.reply_codec_ns":   1,
		"bufpool.get_put_ns":    4, // request and reply frame, at the writing and at the reading end
		"obs.observe_ns":        2, // client latency and server dispatch histograms
		"orb.colocated_echo_ns": 1,
	}
	for k, v := range extra {
		uses[k] = v
	}
	return uses
}

func workloads() []*workload {
	cipher := specOf("xorcipher")
	inline := specOf("xorcipher", "crc32")
	threaded := specOf("window", "crc32")
	return []*workload{
		{
			name:      "echo_tcp_1caller",
			why:       "nothing contends: transport syscalls and the orb server hand-off are the serial path; combiner, qos and dacapo idle",
			load:      "1 caller, 256 B octet-sequence echo, GIOP 1.0, default dispatch; " + loopbackTCP,
			recorders: 1, payload: 256,
			start: startEcho("tcp", 1, 256, nil),
			path: path{payload: 256,
				uses:   echoUses(map[string]float64{"transport.tcp_roundtrip_ns": 1}),
				budget: []string{"orb.colocated_echo_ns", "transport.tcp_roundtrip_ns"}},
			underLoad: func(lr layerReport) error {
				if mean := lr["orb.flush_batch_mean"]; mean > 1.05 {
					return fmt.Errorf("orb.flush_batch_mean = %.3f with one caller, want <= 1.05", mean)
				}
				return nil
			},
		},
		{
			name:      "echo_tcp_mux",
			why:       "8 callers share one TCP connection and saturate the CPUs: the orb combiner writer, admission and worker pool do the work",
			load:      "8 callers with their own proxies on one connection, 256 B echo, GIOP 1.0; " + loopbackTCP,
			recorders: 8, payload: 256,
			start: startEcho("tcp", 8, 256, nil),
			path: path{payload: 256,
				uses:   echoUses(map[string]float64{"transport.tcp_roundtrip_ns": 1}),
				budget: []string{"orb.colocated_echo_ns", "transport.tcp_roundtrip_ns"}},
			underLoad: func(lr layerReport) error {
				if mean := lr["orb.flush_batch_mean"]; mean < 2 {
					return fmt.Errorf("orb.flush_batch_mean = %.3f with 8 callers, want >= 2: the combiner was not exercised", mean)
				}
				return nil
			},
		},
		{
			name:      "echo_dacapo_qos",
			why:       "GIOP 9.9 with qos_params over a Da CaPo cipher stack and no syscalls: per-message cdr/giop/qos/dacapo/obs cost dominates",
			load:      "1 caller, 1 KiB echo, SetQoSParameter(MinThroughput, Encrypted), bilateral negotiation per request; " + inProcess,
			recorders: 1, payload: 1024,
			start: startEcho("dacapo", 1, 1024, echoQoS()),
			path: path{payload: 1024, set: echoQoS(), spec: cipher,
				uses: echoUses(map[string]float64{
					"qos.negotiate_ns":              1, // the servant's capability, every request
					"transport.inproc_roundtrip_ns": 1,
					"dacapo.stack_self_ns":          1,
					"modules.xorcipher_self_ns":     1, // part of dacapo.stack_self_ns
				}),
				budget: []string{"orb.colocated_echo_ns", "transport.inproc_roundtrip_ns", "dacapo.stack_self_ns"}},
		},
		{
			name:      "stream_inline_16k",
			why:       "large messages through a fully inline cipher+CRC stack: per-byte module work dominates, executor hand-offs are negligible",
			load:      "1 sender flooding 16 KiB messages through xorcipher+crc32 on a raw dacapo.Runtime pair; " + inProcess,
			recorders: 2, payload: 16 << 10,
			start: startStream(inline, false, 16<<10, 1),
			path: path{payload: 16 << 10, spec: inline,
				// A message crosses the stack one way: half a ping-pong.
				uses: map[string]float64{
					"transport.inproc_roundtrip_ns": 0.5,
					"dacapo.stack_self_ns":          0.5,
					"modules.xorcipher_self_ns":     0.5,
					"modules.crc32_self_ns":         0.5,
				}},
		},
		{
			name:      "stream_window_1k",
			why:       "small messages through a blocking window stage: per-packet cost of the threaded executor dominates, per-byte work is negligible",
			load:      "1 sender flooding 1 KiB messages through window(16)+crc32 on a raw dacapo.Runtime pair; " + inProcess,
			recorders: 2, payload: 1 << 10,
			start: startStream(threaded, true, 1<<10, 256),
			path: path{payload: 1 << 10, spec: threaded,
				uses: map[string]float64{
					"transport.inproc_roundtrip_ns": 0.5,
					"dacapo.stack_self_ns":          0.5,
					"modules.window_self_ns":        0.5,
					"modules.crc32_self_ns":         0.5,
					"dacapo.batch_size_mean":        1,
				}},
		},
		{
			name:      "bind_qos",
			why:       "every operation binds afresh with a QoS set not seen before: profile selection, dial, Da CaPo signalling, both negotiations",
			load:      "1 caller; Resolve, SetQoSParameter(MinThroughput(10 000+i), Encrypted), one 256 B echo, timed together; client ORB replaced every 256 operations outside the timed span; " + inProcess,
			recorders: 1, payload: 256,
			start: startBind(256),
			path: path{payload: 256, set: echoQoS(), spec: cipher,
				uses: echoUses(map[string]float64{
					"qos.negotiate_ns":              3, // dacapo.Configure, the acceptor's admission, the servant's capability
					"qos.encode_set_ns":             3, // the binding's cached fragment, the signalled proposal, the answer
					"dacapo.connect_us":             1,
					"transport.inproc_roundtrip_ns": 1,
					"dacapo.stack_self_ns":          1,
					"modules.xorcipher_self_ns":     1,
				}),
				// dacapo.connect_us is added by hand: it is in microseconds.
				budget: []string{"orb.colocated_echo_ns", "transport.inproc_roundtrip_ns", "dacapo.stack_self_ns"}},
		},
		{
			name:      "renegotiate_live",
			why:       "a live Da CaPo channel switches QoS in place (plain to encrypted) and by tear-down and re-dial (to reliable, back to plain)",
			load:      "1 caller cycling plain, encrypted, reliable, plain on one dacapo.Manager channel, a 1 KiB ping-pong after each switch; " + inProcess,
			recorders: 1, payload: 3 << 10,
			start: startReneg(1 << 10),
			path: path{payload: 1 << 10,
				uses: map[string]float64{
					"qos.negotiate_ns":              6, // dacapo.Configure and the acceptor's admission, per switch
					"qos.encode_set_ns":             6, // proposal and answer, per switch
					"dacapo.connect_us":             2, // to reliable and back to plain
					"transport.inproc_roundtrip_ns": 3,
					"modules.xorcipher_self_ns":     1,
					"modules.window_self_ns":        1,
					"modules.crc32_self_ns":         1,
				}},
		},
	}
}

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median
}

// endToEnd is what a user of the ORB sees. Every workload reports every
// one of them; which question each answers on which workload is in the
// README.
var endToEnd = []metricDef{
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"goodput_mbit_s", "Mbit/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what a traced run reports; a row is 0 on a workload whose
// operations do not pass through that layer.
var perLayer = []metricDef{
	{name: "cdr.octetseq_codec_ns", unit: "ns", better: "lower"},
	{name: "giop.request_codec_ns", unit: "ns", better: "lower"},
	{name: "giop.reply_codec_ns", unit: "ns", better: "lower"},
	{name: "giop.request_wire_bytes", unit: "B", better: "lower"},
	{name: "qos.negotiate_ns", unit: "ns", better: "lower"},
	{name: "qos.encode_set_ns", unit: "ns", better: "lower"},
	{name: "transport.tcp_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "transport.inproc_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "dacapo.stack_self_ns", unit: "ns", better: "lower"},
	{name: "modules.xorcipher_self_ns", unit: "ns", better: "lower"},
	{name: "modules.crc32_self_ns", unit: "ns", better: "lower"},
	{name: "modules.window_self_ns", unit: "ns", better: "lower"},
	{name: "dacapo.batch_size_mean", unit: "count", better: "higher"},
	{name: "dacapo.segments_threaded", unit: "count", better: "lower"},
	{name: "dacapo.connect_us", unit: "us", better: "lower"},
	{name: "dacapo.reconfig_inplace", unit: "count", better: "higher"},
	{name: "dacapo.reconfig_redial", unit: "count", better: "lower"},
	{name: "orb.colocated_echo_ns", unit: "ns", better: "lower"},
	{name: "orb.flush_batch_mean", unit: "count", better: "higher"},
	{name: "orb.flow_wait_p99_us", unit: "us", better: "lower"},
	{name: "orb.server_dispatch_p50_us", unit: "us", better: "lower"},
	{name: "orb.conns_cached", unit: "count", better: "lower"},
	{name: "orb.unexplained_ns", unit: "ns", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.bytes_per_op", unit: "B", better: "lower"},
	{name: "bufpool.get_put_ns", unit: "ns", better: "lower"},
	{name: "obs.observe_ns", unit: "ns", better: "lower"},
	{name: "span.client_pre_ns", unit: "ns", better: "lower"},
	{name: "span.args_encode_ns", unit: "ns", better: "lower"},
	{name: "span.request_path_ns", unit: "ns", better: "lower"},
	{name: "span.servant_ns", unit: "ns", better: "lower"},
	{name: "span.reply_encode_ns", unit: "ns", better: "lower"},
	{name: "span.reply_path_ns", unit: "ns", better: "lower"},
	{name: "span.reply_decode_ns", unit: "ns", better: "lower"},
	{name: "span.client_post_ns", unit: "ns", better: "lower"},
	{name: "span.invoke_self_ns", unit: "ns", better: "lower"},
	{name: "span.stream_send_ns", unit: "ns", better: "lower"},
	{name: "span.stream_deliver_ns", unit: "ns", better: "lower"},
	{name: "span.switch_encrypted_ns", unit: "ns", better: "lower"},
	{name: "span.switch_reliable_ns", unit: "ns", better: "lower"},
	{name: "span.switch_plain_ns", unit: "ns", better: "lower"},
	{name: "span.pingpong_ns", unit: "ns", better: "lower"},
	{name: "span.cycle_self_ns", unit: "ns", better: "lower"},
	{name: "trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "harness.timer_ns", unit: "ns", better: "lower"},
}
