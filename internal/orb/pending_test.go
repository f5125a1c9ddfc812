package orb_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"cool/internal/giop"
	"cool/internal/qos"
)

// isTimeout reports whether err is the TIMEOUT system exception that also
// matches context.DeadlineExceeded.
func isTimeout(err error) bool {
	var se *giop.SystemException
	return errors.As(err, &se) && se.IsTimeout() && errors.Is(err, context.DeadlineExceeded)
}

// TestPendingWaitCtxExpiryLeavesPending: a WaitCtx whose context expires
// before the reply returns TIMEOUT and counts it, but the invocation stays
// pending, so a later Wait still receives the reply.
func TestPendingWaitCtxExpiryLeavesPending(t *testing.T) {
	_, client, _, obj := newEnv(t, nil, "inproc")
	p, err := obj.InvokeDeferred("slow", nil) // the servant sleeps 30 ms
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := p.WaitCtx(ctx, nil); !isTimeout(err) {
		t.Fatalf("WaitCtx past its deadline = %v, want TIMEOUT", err)
	}
	if n := client.Metrics().Snapshot().Counter("orb.client.deadline_exceeded"); n != 1 {
		t.Fatalf("orb.client.deadline_exceeded = %d, want 1", n)
	}
	if err := p.Wait(nil); err != nil {
		t.Fatalf("Wait after an expired WaitCtx = %v, want the reply", err)
	}
}

// TestPendingWaitCtxCanceled: a cancelled context releases WaitCtx with
// context.Canceled — not a TIMEOUT, and not counted as one.
func TestPendingWaitCtxCanceled(t *testing.T) {
	_, client, _, obj := newEnv(t, nil, "inproc")
	p, err := obj.InvokeDeferred("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = p.WaitCtx(ctx, nil)
	if !errors.Is(err, context.Canceled) || isTimeout(err) {
		t.Fatalf("WaitCtx on a cancelled context = %v, want context.Canceled", err)
	}
	if n := client.Metrics().Snapshot().Counter("orb.client.deadline_exceeded"); n != 0 {
		t.Fatalf("orb.client.deadline_exceeded = %d, want 0", n)
	}
	if err := p.Wait(nil); err != nil {
		t.Fatalf("Wait after a cancelled WaitCtx = %v, want the reply", err)
	}
}

// TestPendingWaitCtxQoSBoundFromSend: the binding's QoS delay bound
// (2× the one-way Latency) counts from the send, not from the WaitCtx call.
// The reply lands 30 ms after the send and the Wait starts 25 ms after it,
// so only a bound measured from the send (20 ms) has already expired.
func TestPendingWaitCtxQoSBoundFromSend(t *testing.T) {
	_, _, _, obj := newEnv(t, qos.Unconstrained(), "dacapo")
	req := qos.Set{{Type: qos.Latency, Request: 10_000, Max: 1_000_000, Min: 0}}
	if err := obj.SetQoSParameter(req); err != nil {
		t.Fatal(err)
	}
	p, err := obj.InvokeDeferred("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)
	if err := p.WaitCtx(context.Background(), nil); !isTimeout(err) {
		t.Fatalf("WaitCtx past the QoS bound = %v, want TIMEOUT", err)
	}
	if err := p.Cancel(); err != nil {
		t.Fatal(err)
	}
}
