package modules

import (
	"fmt"
	"time"

	"cool/internal/dacapo"
)

// rateLimit realises traffic shaping with a token bucket: down-direction
// packets are released at the configured rate, smoothing bursts (the
// configuration manager's answer to jitter bounds). Up-direction traffic
// passes through untouched.
type rateLimit struct {
	dacapo.BaseModule

	bytesPerSec float64
	burst       float64

	tokens  float64
	last    time.Time
	waiting *dacapo.Packet
}

type rlTick struct{}

func newRateLimit(args dacapo.Args) (dacapo.Module, error) {
	kbps, err := args.Int("kbps", 0)
	if err != nil {
		return nil, err
	}
	if kbps <= 0 {
		return nil, fmt.Errorf("modules: ratelimit requires kbps > 0, got %d", kbps)
	}
	burst, err := args.Int("burst", 64<<10)
	if err != nil {
		return nil, err
	}
	return &rateLimit{
		bytesPerSec: float64(kbps) * 125, // kbit/s -> bytes/s
		burst:       float64(burst),
	}, nil
}

func (m *rateLimit) Name() string { return "ratelimit" }

// Blocking marks ratelimit for threaded scheduling: it holds packets past
// handler return and wakes on refill timers.
func (m *rateLimit) Blocking() {}

func (m *rateLimit) Stop(ctx *dacapo.Context) error {
	if m.waiting != nil {
		dacapo.PutPacket(m.waiting)
		m.waiting = nil
	}
	return nil
}

func (m *rateLimit) Start(*dacapo.Context) error {
	m.tokens = m.burst
	m.last = time.Now()
	return nil
}

func (m *rateLimit) refill(need float64) {
	now := time.Now()
	m.tokens += now.Sub(m.last).Seconds() * m.bytesPerSec
	m.last = now
	// The cap grows to the largest packet so oversized packets eventually
	// pass instead of starving forever.
	cap := m.burst
	if need > cap {
		cap = need
	}
	if m.tokens > cap {
		m.tokens = cap
	}
}

func (m *rateLimit) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	need := float64(p.Len())
	m.refill(need)
	if m.tokens >= need {
		m.tokens -= need
		return ctx.EmitDown(p)
	}
	// Not enough budget: hold the packet, stop intake, wake up when the
	// bucket has refilled.
	m.waiting = p
	ctx.PauseDown()
	m.scheduleWake(ctx, need)
	return nil
}

func (m *rateLimit) HandleEvent(ctx *dacapo.Context, ev any) error {
	if _, ok := ev.(rlTick); !ok || m.waiting == nil {
		return nil
	}
	need := float64(m.waiting.Len())
	m.refill(need)
	if m.tokens < need {
		m.scheduleWake(ctx, need)
		return nil
	}
	m.tokens -= need
	p := m.waiting
	m.waiting = nil
	ctx.ResumeDown()
	return ctx.EmitDown(p)
}

func (m *rateLimit) scheduleWake(ctx *dacapo.Context, need float64) {
	deficit := need - m.tokens
	wait := time.Duration(deficit / m.bytesPerSec * float64(time.Second))
	if wait < 100*time.Microsecond {
		wait = 100 * time.Microsecond
	}
	ctx.After(wait, rlTick{})
}

func (m *rateLimit) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	return ctx.EmitUp(p)
}
