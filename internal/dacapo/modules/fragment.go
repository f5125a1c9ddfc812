package modules

import (
	"encoding/binary"
	"fmt"

	"cool/internal/dacapo"
)

// fragment realises segmentation/reassembly: packets larger than the MTU
// are split into numbered fragments on the way down and reassembled on the
// way up. Required when the T service enforces an MTU (netsim links).
//
// Fragment header: [group id:4][index:2][count:2], big-endian.
type fragment struct {
	dacapo.BaseModule

	mtu     int
	nextID  uint32
	pending map[uint32]*fragGroup
	// order keeps insertion order for bounded eviction.
	order []uint32
}

type fragGroup struct {
	// parts retains the fragment packets until the group completes; they
	// are released on reassembly, eviction, or Stop.
	parts []*dacapo.Packet
	got   int
}

const (
	fragHdrLen       = 8
	maxPendingGroups = 1024
	maxFragCount     = 1 << 14
)

func newFragment(args dacapo.Args) (dacapo.Module, error) {
	mtu, err := args.Int("mtu", 1400)
	if err != nil {
		return nil, err
	}
	if mtu <= fragHdrLen {
		return nil, fmt.Errorf("modules: fragment mtu %d must exceed header size %d", mtu, fragHdrLen)
	}
	return &fragment{mtu: mtu, pending: make(map[uint32]*fragGroup)}, nil
}

func (m *fragment) Name() string { return "fragment" }

func (m *fragment) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	chunk := m.mtu - fragHdrLen
	data := p.Bytes()
	count := (len(data) + chunk - 1) / chunk
	if count == 0 {
		count = 1 // empty payload still travels as one fragment
	}
	if count > maxFragCount {
		dacapo.PutPacket(p)
		return fmt.Errorf("modules: payload of %d octets needs %d fragments (max %d)", len(data), count, maxFragCount)
	}
	id := m.nextID
	m.nextID++
	var err error
	for idx := 0; idx < count && err == nil; idx++ {
		lo := idx * chunk
		hi := min(lo+chunk, len(data))
		fp := dacapo.GetPacket(data[lo:hi])
		hdr := fp.Prepend(fragHdrLen)
		binary.BigEndian.PutUint32(hdr[0:4], id)
		binary.BigEndian.PutUint16(hdr[4:6], uint16(idx))
		binary.BigEndian.PutUint16(hdr[6:8], uint16(count))
		err = ctx.EmitDown(fp)
	}
	dacapo.PutPacket(p)
	return err
}

func (m *fragment) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	if p.Len() < fragHdrLen {
		ctx.Drop(p)
		return nil
	}
	hdr := p.Bytes()[:fragHdrLen]
	id := binary.BigEndian.Uint32(hdr[0:4])
	idx := int(binary.BigEndian.Uint16(hdr[4:6]))
	count := int(binary.BigEndian.Uint16(hdr[6:8]))
	if count == 0 || count > maxFragCount || idx >= count {
		ctx.Drop(p)
		return nil
	}
	if err := p.StripFront(fragHdrLen); err != nil {
		return err
	}

	// Single-fragment fast path.
	if count == 1 {
		return ctx.EmitUp(p)
	}

	g, ok := m.pending[id]
	if !ok {
		g = &fragGroup{parts: make([]*dacapo.Packet, count)}
		m.pending[id] = g
		m.order = append(m.order, id)
		m.evict(ctx)
	}
	if len(g.parts) != count || g.parts[idx] != nil {
		ctx.Drop(p) // inconsistent or duplicate fragment
		return nil
	}
	g.parts[idx] = p
	g.got++
	if g.got < count {
		return nil
	}
	// Complete: reassemble in order, one copy per fragment into a pooled
	// packet sized for the whole payload.
	delete(m.pending, id)
	total := 0
	for _, part := range g.parts {
		total += part.Len()
	}
	whole := dacapo.GetPacketSized(total)
	for i, part := range g.parts {
		whole.Append(part.Bytes())
		dacapo.PutPacket(part)
		g.parts[i] = nil
	}
	return ctx.EmitUp(whole)
}

// evict bounds the reassembly table: when over capacity the oldest
// incomplete group is discarded (its fragments were lost anyway).
func (m *fragment) evict(ctx *dacapo.Context) {
	for len(m.pending) > maxPendingGroups && len(m.order) > 0 {
		victim := m.order[0]
		m.order = m.order[1:]
		if g, ok := m.pending[victim]; ok {
			releaseParts(ctx, g)
			delete(m.pending, victim)
		}
	}
}

// Stop releases fragments of groups that never completed.
func (m *fragment) Stop(ctx *dacapo.Context) error {
	for id, g := range m.pending {
		releaseParts(ctx, g)
		delete(m.pending, id)
	}
	return nil
}

func releaseParts(ctx *dacapo.Context, g *fragGroup) {
	for i, part := range g.parts {
		if part != nil {
			dacapo.PutPacket(part)
			g.parts[i] = nil
		}
	}
}
