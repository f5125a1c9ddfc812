package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestScenarioOneServedAtGrantedQoS runs the walkthrough and checks that
// the granted scenario reports the QoS the servant was invoked with: the
// servant's reply writer reads inv.QoS after Invoke has returned, so an
// Invocation recycled too early prints "QoS {}".
func TestScenarioOneServedAtGrantedQoS(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	const want = "served at QoS {throughput=10000kbit/s[1000..∞]}"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("scenario 1 output lacks %q:\n%s", want, out.String())
	}
}
