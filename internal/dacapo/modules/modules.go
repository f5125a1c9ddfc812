// Package modules is the standard Da CaPo module library: one mechanism
// per protocol function, combinable into protocol configurations.
//
// Mechanisms (registry names in parentheses):
//
//   - forwarding       — "dummy" (the paper's dummy module: forwards
//     packets unaltered; used to measure module-interface overhead in
//     Figure 9)
//   - error detection  — "parity", "crc16", "crc32"
//   - sequencing       — "seqnum" (duplicate suppression + gap detection)
//   - flow control/ARQ — "irq" (idle-repeat-request, the stop-and-wait
//     mechanism whose poor throughput Figure 9 shows), "window"
//     (sliding-window go-back-N)
//   - traffic shaping  — "ratelimit" (token bucket)
//   - confidentiality  — "xorcipher" (toy repeating-key XOR stream; stands
//     in for de-/encryption protocol functions. Optional arg "key" of at
//     most 256 octets; modules without one share a read-only block of the
//     default key)
//   - compression      — "rle" (PackBits run-length coding)
//   - segmentation     — "fragment" (MTU-bounded fragmentation/reassembly)
//
// Modules add their headers on the way down and strip them on the way up;
// a sender stack and receiver stack built from the same Spec therefore
// cancel out exactly.
package modules

import (
	"cool/internal/dacapo"
)

// Register adds every standard mechanism to reg.
func Register(reg *dacapo.Registry) {
	reg.Register("dummy", newDummy)
	reg.Register("parity", newParity)
	reg.Register("crc16", newCRC16)
	reg.Register("crc32", newCRC32)
	reg.Register("seqnum", newSeqNum)
	reg.Register("xorcipher", newXORCipher)
	reg.Register("rle", newRLE)
	reg.Register("fragment", newFragment)
	reg.Register("irq", newIRQ)
	reg.Register("window", newWindow)
	reg.Register("ratelimit", newRateLimit)
}

// NewLibrary returns a fresh registry preloaded with the standard library.
func NewLibrary() *dacapo.Registry {
	reg := dacapo.NewRegistry()
	Register(reg)
	return reg
}

// dummy forwards packets unchanged in both directions. Chains of dummy
// modules measure the pure cost of module interfaces and packet forwarding.
type dummy struct {
	dacapo.BaseModule
}

func newDummy(dacapo.Args) (dacapo.Module, error) { return &dummy{}, nil }

func (d *dummy) Name() string { return "dummy" }

func (d *dummy) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	return ctx.EmitDown(p)
}

func (d *dummy) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	return ctx.EmitUp(p)
}
