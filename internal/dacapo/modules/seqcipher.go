package modules

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"cool/internal/dacapo"
)

// seqNum prepends a 64-bit sequence number on the way down; on the way up
// it suppresses duplicates and counts gaps. It realises the sequencing
// protocol function (duplicate filtering and loss visibility) without
// retransmission.
type seqNum struct {
	dacapo.BaseModule

	next     uint64 // next outbound sequence number
	expected uint64 // next inbound sequence number
	gaps     uint64 // observed missing packets
}

func newSeqNum(dacapo.Args) (dacapo.Module, error) { return &seqNum{}, nil }

func (m *seqNum) Name() string { return "seqnum" }

const seqHdrLen = 8

func (m *seqNum) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	hdr := p.Prepend(seqHdrLen)
	binary.BigEndian.PutUint64(hdr, m.next)
	m.next++
	return ctx.EmitDown(p)
}

func (m *seqNum) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	if p.Len() < seqHdrLen {
		ctx.Drop(p)
		return nil
	}
	seq := binary.BigEndian.Uint64(p.Bytes())
	if err := p.StripFront(seqHdrLen); err != nil {
		return err
	}
	switch {
	case seq < m.expected: // duplicate or reordered: suppress
		ctx.Drop(p)
		return nil
	case seq > m.expected: // gap: account for the missing packets
		m.gaps += seq - m.expected
	}
	m.expected = seq + 1
	return ctx.EmitUp(p)
}

// xorCipher realises the en-/decryption protocol function with a toy
// repeating-key XOR stream: enough to demonstrate that a confidentiality
// module slots into the graph and that both directions invert each other.
// It is NOT cryptographically secure and is documented as a stand-in.
//
// The key is expanded once into a block of whole key repetitions, at least
// minCipherBlock octets long. apply XORs the payload block by block with
// crypto/subtle.XORBytes; every block starts at a multiple of the key
// length, so the ciphertext is octet-identical to XORing data[i] with
// key[i%len(key)]. The default key's block is one package-level value
// shared by every module built without a key argument, so building one
// allocates only the module; blocks are never written after construction
// and must stay read-only. A spec arrives over the wire in Accept, so keys
// longer than maxCipherKey octets are refused: the peer cannot choose the
// size of the block this side allocates.
type xorCipher struct {
	dacapo.BaseModule

	block []byte
}

const (
	minCipherBlock = 512
	maxCipherKey   = 256
)

var defaultCipherBlock = cipherBlock("dacapo-default-key")

// cipherBlock repeats key until the block holds at least minCipherBlock
// octets.
func cipherBlock(key string) []byte {
	reps := (minCipherBlock + len(key) - 1) / len(key)
	return bytes.Repeat([]byte(key), reps)
}

func newXORCipher(args dacapo.Args) (dacapo.Module, error) {
	key := args["key"]
	if key == "" {
		return &xorCipher{block: defaultCipherBlock}, nil
	}
	if len(key) > maxCipherKey {
		return nil, fmt.Errorf("modules: xorcipher key of %d octets exceeds %d", len(key), maxCipherKey)
	}
	return &xorCipher{block: cipherBlock(key)}, nil
}

func (m *xorCipher) Name() string { return "xorcipher" }

func (m *xorCipher) apply(p *dacapo.Packet) {
	data := p.WritableBytes()
	for len(data) > 0 {
		data = data[subtle.XORBytes(data, data, m.block):]
	}
}

func (m *xorCipher) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	m.apply(p)
	return ctx.EmitDown(p)
}

func (m *xorCipher) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	m.apply(p)
	return ctx.EmitUp(p)
}
