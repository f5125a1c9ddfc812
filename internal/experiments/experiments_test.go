package experiments

import (
	"slices"
	"testing"
	"time"

	"cool/internal/dacapo"
	"cool/internal/netsim"
	"cool/internal/qos"
)

func TestFig9ConfigsWellFormed(t *testing.T) {
	cfgs := Fig9Configs()
	if len(cfgs) != 5 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	if len(cfgs[3].Spec.Modules) != 40 {
		t.Fatalf("40-dummy config has %d modules", len(cfgs[3].Spec.Modules))
	}
	if cfgs[4].Spec.Modules[0].Name != "irq" {
		t.Fatalf("last config = %v", cfgs[4].Spec)
	}
}

// TestFig9Shape verifies the qualitative claims of Figure 9 on a reduced
// matrix: throughput grows with packet size; the dummy-chain overhead is
// small; the IRQ configuration is clearly slower than the module-free one.
func TestFig9Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("timing shapes are unreliable under the race detector")
	}
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	link := Fig9Link()
	cfgs := Fig9Configs()

	measure := func(name string, idx, size, count int) float64 {
		t.Helper()
		mbps, err := MeasureStackThroughput(cfgs[idx].Spec, link, size, count)
		if err != nil {
			t.Fatalf("%s/%d: %v", name, size, err)
		}
		return mbps
	}

	// Throughput grows with packet size (0-dummy config).
	small := measure("0 dummy", 0, 1<<10, 300)
	large := measure("0 dummy", 0, 32<<10, 300)
	if large <= small {
		t.Errorf("throughput should grow with packet size: 1K=%.1f, 32K=%.1f", small, large)
	}

	// 40 dummy modules cost little at large packets ("the cost of the
	// flexibility is negligible"): within a factor 2 of the empty stack.
	chain := measure("40 dummy", 3, 32<<10, 300)
	if chain < large/2 {
		t.Errorf("40-dummy throughput %.1f below half of empty-stack %.1f", chain, large)
	}

	// IRQ is well below the pipeline-friendly configurations at small
	// packets (the stop-and-wait collapse).
	irq := measure("irq", 4, 1<<10, 60)
	if irq > small/2 {
		t.Errorf("irq %.1f Mbps not clearly below empty stack %.1f Mbps", irq, small)
	}
}

// TestGIOPComparisonShape verifies E2's claim: the QoS extension does not
// change response time materially (allow generous noise in CI).
func TestGIOPComparisonShape(t *testing.T) {
	if raceEnabled {
		t.Skip("timing shapes are unreliable under the race detector")
	}
	if testing.Short() {
		t.Skip("latency measurement")
	}
	cmp, err := RunGIOPComparison(150, 512)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Plain.N != 150 || cmp.QoS.N != 150 {
		t.Fatalf("sample counts: %d / %d", cmp.Plain.N, cmp.QoS.N)
	}
	// Same order of magnitude: p50 within 3x either way.
	if cmp.QoS.P50 > cmp.Plain.P50*3 || cmp.Plain.P50 > cmp.QoS.P50*3 {
		t.Errorf("p50 diverges: plain %v vs qos %v", cmp.Plain.P50, cmp.QoS.P50)
	}
}

// TestGIOPOrderAlternatesBlocks pins E2's sampling order: equal sample
// counts, taken in alternating blocks, the last pair of blocks short.
func TestGIOPOrderAlternatesBlocks(t *testing.T) {
	var want []int
	for _, run := range []struct{ v, k int }{{0, 10}, {1, 10}, {0, 10}, {1, 10}, {0, 5}, {1, 5}} {
		for range run.k {
			want = append(want, run.v)
		}
	}
	if got := giopOrder(25, 10); !slices.Equal(got, want) {
		t.Fatalf("giopOrder(25, 10) = %v\nwant %v", got, want)
	}
	if got := giopOrder(0, 10); len(got) != 0 {
		t.Fatalf("giopOrder(0, 10) = %v, want none", got)
	}
}

func TestNegotiationScenarioShape(t *testing.T) {
	if raceEnabled {
		t.Skip("timing shapes are unreliable under the race detector")
	}
	if testing.Short() {
		t.Skip("latency measurement")
	}
	points, err := RunNegotiationScenarios(10, 256)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RTStats{}
	for _, p := range points {
		byName[p.Scenario] = p.Stats
	}
	warm, ok1 := byName["granted (warm)"]
	fresh, ok2 := byName["per-method QoS (fresh)"]
	if !ok1 || !ok2 {
		t.Fatalf("scenarios = %v", points)
	}
	// A fresh renegotiation includes connection setup; it must cost more
	// than a warm invocation.
	if fresh.P50 <= warm.P50 {
		t.Errorf("fresh renegotiation p50 %v not above warm p50 %v", fresh.P50, warm.P50)
	}
}

func TestTransportComparisonShape(t *testing.T) {
	if raceEnabled {
		t.Skip("timing shapes are unreliable under the race detector")
	}
	if pooldebugEnabled {
		t.Skip("timing shapes are unreliable under the pooldebug verifier")
	}
	if testing.Short() {
		t.Skip("latency measurement")
	}
	points, err := RunTransportComparison(80, 512)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RTStats{}
	for _, p := range points {
		byName[p.Transport] = p.Stats
	}
	for _, name := range []string{"tcp", "inproc", "dacapo", "colocated"} {
		if byName[name].N == 0 {
			t.Fatalf("missing transport %s", name)
		}
	}
	// The colocation shortcut must beat real TCP.
	if byName["colocated"].P50 >= byName["tcp"].P50 {
		t.Errorf("colocated p50 %v not below tcp p50 %v", byName["colocated"].P50, byName["tcp"].P50)
	}
}

func TestConfigTableShape(t *testing.T) {
	if raceEnabled {
		t.Skip("timing shapes are unreliable under the race detector")
	}
	if testing.Short() {
		t.Skip("loss measurement")
	}
	rows, err := RunConfigTable()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ConfigRow{}
	for _, r := range rows {
		byName[r.Requirements] = r
	}
	rel := byName["reliable+ordered"]
	if rel.Spec == "" || rel.DeliveredLossPct != 0 || !rel.Measured {
		t.Errorf("reliable config delivered loss %.1f%% (%+v)", rel.DeliveredLossPct, rel)
	}
	be := byName["best effort"]
	if be.Measured && be.DeliveredLossPct == 0 {
		t.Logf("note: best-effort run saw no loss (possible with 200 samples)")
	}
}

func TestMarshalComparisonShape(t *testing.T) {
	rows, err := RunMarshalComparison(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Empty qos_params costs exactly 4 octets on the wire.
	if rows[1].WireBytes != rows[0].WireBytes+4 {
		t.Errorf("GIOP 9.9 empty delta = %d, want 4", rows[1].WireBytes-rows[0].WireBytes)
	}
	// Each parameter costs exactly 16 octets.
	if rows[2].WireBytes != rows[1].WireBytes+16 {
		t.Errorf("per-parameter delta = %d, want 16", rows[2].WireBytes-rows[1].WireBytes)
	}
}

func TestMeasureStackThroughput(t *testing.T) {
	// A tiny measurement over the unconstrained loopback must succeed and
	// return a positive rate.
	spec := Fig9Configs()[1].Spec // 10 dummy modules
	mbps, err := MeasureStackThroughput(spec, netsim.Loopback(), 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mbps <= 0 {
		t.Fatalf("mbps = %f", mbps)
	}
	// An unknown module must fail cleanly, not hang.
	bad := spec
	bad.Modules = append([]dacapo.ModuleSpec{{Name: "warp-drive"}}, bad.Modules...)
	if _, err := MeasureStackThroughput(bad, netsim.Loopback(), 128, 4); err == nil {
		t.Fatal("unknown module should fail")
	}
}

func TestEnvHelpers(t *testing.T) {
	env, err := NewEnv("inproc")
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if err := Echo(env.Object(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	st, err := MeasureInvocationRT(env.Object(), []byte("x"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 5 || st.Mean <= 0 || st.P99 < st.P50 || st.Max < st.Min {
		t.Fatalf("stats = %+v", st)
	}
	local := env.LocalObject()
	colocated, err := local.Colocated()
	if err != nil || !colocated {
		t.Fatalf("LocalObject colocated = %v, %v", colocated, err)
	}
}

func TestFormatSize(t *testing.T) {
	if FormatSize(16<<10) != "16K" {
		t.Error("16K format")
	}
	if FormatSize(100) != "100" {
		t.Error("small format")
	}
	if FormatSize(1500) != "1500" {
		t.Error("non-multiple format")
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s.N != 0 {
		t.Fatal("empty summary")
	}
	s := summarize([]time.Duration{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.P50 != 2 || s.Mean != 2 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestCapEnvAppliesCapability(t *testing.T) {
	env, err := newCapEnv(qos.Capability{qos.Throughput: {Best: 100, Supported: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	set, err := qos.NewSet(qos.Parameter{Type: qos.Throughput, Request: 5000, Max: qos.NoLimit, Min: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Object().SetQoSParameter(set); err != nil {
		t.Fatal(err)
	}
	if err := Echo(env.Object(), nil); err == nil {
		t.Fatal("expected NACK through capability-limited servant")
	}
}
