// Package cdr implements the OMG Common Data Representation (CDR) used by
// GIOP to marshal operation parameters and message headers.
//
// CDR is an octet-stream encoding with two distinguishing properties:
//
//   - Primitive values are aligned on their natural boundary, counted from
//     the start of the stream (an 8-byte double at stream offset 5 is
//     preceded by 3 padding octets).
//   - The sender chooses its native byte order and flags it in the stream
//     (in GIOP: the byte_order boolean of the message header); the receiver
//     byte-swaps if necessary.
//
// The package provides an Encoder that builds a CDR stream and a Decoder
// that consumes one. Both operate on in-memory buffers: GIOP messages are
// bounded (the header carries message_size), so streaming decode is not
// required.
//
// Encapsulations (CDR streams nested as sequence<octet>, each with its own
// byte-order flag and alignment origin) are supported via EncodeEncapsulation
// and Decoder.ReadEncapsulation; they are used by IORs and service contexts.
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cool/internal/bufpool"
)

// Byte order flags as they appear on the wire (CORBA 2.0 §12.3: boolean
// byte_order; TRUE indicates little-endian).
const (
	BigEndian    = false
	LittleEndian = true
)

// Common decoding errors. Decoder methods wrap these with positional
// context; use errors.Is to match.
var (
	// ErrShortBuffer reports a read past the end of the CDR stream.
	ErrShortBuffer = errors.New("cdr: buffer too short")
	// ErrInvalidString reports a malformed CDR string (bad length or
	// missing NUL terminator).
	ErrInvalidString = errors.New("cdr: invalid string")
	// ErrLengthOverflow reports a sequence length field larger than the
	// remaining stream, which would otherwise drive huge allocations.
	ErrLengthOverflow = errors.New("cdr: sequence length exceeds remaining buffer")
)

// Encoder builds a CDR octet stream. The zero value is not usable; create
// encoders with NewEncoder. Encoders are not safe for concurrent use.
type Encoder struct {
	buf    []byte
	little bool
}

// NewEncoder returns an Encoder producing a stream in the given byte order
// (use cdr.BigEndian or cdr.LittleEndian).
func NewEncoder(littleEndian bool) *Encoder {
	return &Encoder{little: littleEndian}
}

// NewEncoderBuf is like NewEncoder but appends to buf, treating the start of
// buf as the alignment origin. It is used to emit a GIOP body directly after
// a fixed-size header in one buffer.
func NewEncoderBuf(buf []byte, littleEndian bool) *Encoder {
	return &Encoder{buf: buf, little: littleEndian}
}

var encPool = bufpool.NewPool(func(e *Encoder) { *e = Encoder{} })

// AcquireEncoder returns a pooled Encoder writing into a pooled buffer.
// Steady-state acquisition performs no heap allocation. Finish with either
// Detach (keep the bytes, recycle the shell) or ReleaseEncoder (recycle
// both).
func AcquireEncoder(littleEndian bool) *Encoder {
	e := encPool.Get()
	e.buf = bufpool.Get(minEncBuf) //coollint:owner encoder keeps its backing buffer
	e.little = littleEndian
	return e
}

// minEncBuf sizes fresh pooled encoder buffers. It matches the size class
// that typical invocation frames (header + ~1 KiB payload) land in, so the
// buffers recycled from written frames re-enter the same bufpool class the
// encoder acquires from — a smaller seed would starve its class and turn
// every acquire into a fresh allocation.
const minEncBuf = 2048

// grow ensures room for need more bytes, moving the stream to a larger
// pooled buffer instead of letting append reallocate outside the arena.
//
//coollint:allocator arena growth; recycled via bufpool
func (e *Encoder) grow(need int) {
	if cap(e.buf)-len(e.buf) >= need {
		return
	}
	nb := bufpool.Get(2 * (len(e.buf) + need)) //coollint:owner becomes the encoder's buffer below
	nb = nb[:len(e.buf)]
	copy(nb, e.buf)
	bufpool.Put(e.buf)
	e.buf = nb
}

// Detach returns the encoded stream and recycles the Encoder shell. The
// returned buffer is exclusively owned by the caller; hand it to
// bufpool.Put (directly or via a transport/codec release helper) when the
// frame has been written or decoded, and do not use the Encoder afterwards.
func (e *Encoder) Detach() []byte {
	b := e.buf
	encPool.Put(e)
	return b
}

// ReleaseEncoder recycles an acquired Encoder and its buffer without
// detaching the bytes. Use on error paths where the stream is abandoned.
func ReleaseEncoder(e *Encoder) {
	bufpool.Put(e.buf)
	encPool.Put(e)
}

// LittleEndian reports whether the encoder writes little-endian values.
func (e *Encoder) LittleEndian() bool { return e.little }

// Bytes returns the encoded stream. The slice aliases the encoder's
// internal buffer; it is valid until the next Write call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current stream length in octets.
func (e *Encoder) Len() int { return len(e.buf) }

// Align pads the stream with zero octets to a multiple of n (a power of
// two, at most 8). It is exported for codec layers that splice pre-encoded
// fragments whose own encoding began at an n-aligned offset.
func (e *Encoder) Align(n int) { e.align(n) }

var zeroPad [8]byte

// align pads the stream with zero octets to a multiple of n (n must be a
// power of two, at most 8). The padding is one append of a static block,
// not a byte loop.
func (e *Encoder) align(n int) {
	pad := (n - len(e.buf)%n) % n
	e.buf = append(e.buf, zeroPad[:pad]...)
}

func (e *Encoder) order() binary.AppendByteOrder {
	if e.little {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// WriteOctet appends a raw octet.
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteOctets appends raw octets with no count and no alignment. Use
// WriteOctetSeq for sequence<octet>.
func (e *Encoder) WriteOctets(p []byte) { e.buf = append(e.buf, p...) }

// WriteBoolean appends a CDR boolean (one octet, 0 or 1).
func (e *Encoder) WriteBoolean(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// WriteChar appends a CDR char (one octet, ISO 8859-1).
func (e *Encoder) WriteChar(v byte) { e.buf = append(e.buf, v) }

// WriteShort appends a 16-bit signed integer aligned on 2.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteUShort appends a 16-bit unsigned integer aligned on 2.
func (e *Encoder) WriteUShort(v uint16) {
	e.align(2)
	e.buf = e.order().AppendUint16(e.buf, v)
}

// WriteLong appends a 32-bit signed integer aligned on 4.
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULong appends a 32-bit unsigned integer aligned on 4.
func (e *Encoder) WriteULong(v uint32) {
	e.align(4)
	e.buf = e.order().AppendUint32(e.buf, v)
}

// WriteLongLong appends a 64-bit signed integer aligned on 8.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteULongLong appends a 64-bit unsigned integer aligned on 8.
func (e *Encoder) WriteULongLong(v uint64) {
	e.align(8)
	e.buf = e.order().AppendUint64(e.buf, v)
}

// WriteFloat appends an IEEE 754 single-precision float aligned on 4.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends an IEEE 754 double-precision float aligned on 8.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

//coollint:hotpath representative warm encode root; audits the Write helpers
//
// WriteString appends a CDR string: ulong length (including the terminating
// NUL) followed by the octets and a NUL.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctetSeq appends a sequence<octet>: ulong count followed by the raw
// octets.
func (e *Encoder) WriteOctetSeq(p []byte) {
	e.WriteULong(uint32(len(p)))
	e.grow(len(p))
	e.buf = append(e.buf, p...)
}

// WriteULongSeq appends a sequence<unsigned long>.
func (e *Encoder) WriteULongSeq(vs []uint32) {
	e.WriteULong(uint32(len(vs)))
	for _, v := range vs {
		e.WriteULong(v)
	}
}

// WriteStringSeq appends a sequence<string>.
func (e *Encoder) WriteStringSeq(vs []string) {
	e.WriteULong(uint32(len(vs)))
	for _, v := range vs {
		e.WriteString(v)
	}
}

// WriteEncapsulation appends body as a CDR encapsulation: a sequence<octet>
// whose first octet is the encapsulation's own byte-order flag. body must
// already start with that flag (as produced by EncodeEncapsulation).
func (e *Encoder) WriteEncapsulation(body []byte) { e.WriteOctetSeq(body) }

// EncodeEncapsulation runs fn against a fresh encoder and returns the
// encapsulated stream: byte-order flag followed by fn's output, aligned
// relative to the start of the encapsulation.
func EncodeEncapsulation(littleEndian bool, fn func(*Encoder)) []byte {
	enc := NewEncoder(littleEndian)
	enc.WriteBoolean(littleEndian)
	fn(enc)
	return enc.Bytes()
}

// Decoder consumes a CDR octet stream produced by an Encoder (or a remote
// peer). Decoders are not safe for concurrent use.
type Decoder struct {
	data   []byte
	pos    int
	little bool
}

// NewDecoder returns a Decoder over data in the given byte order.
func NewDecoder(data []byte, littleEndian bool) *Decoder {
	return &Decoder{data: data, little: littleEndian}
}

// Reset re-points the decoder at data with position pos, reusing the
// Decoder value. It exists so hot paths can embed a Decoder and avoid the
// per-message allocation of NewDecoder.
func (d *Decoder) Reset(data []byte, littleEndian bool, pos int) {
	d.data = data
	d.little = littleEndian
	d.pos = pos
}

// LittleEndian reports whether the decoder reads little-endian values.
func (d *Decoder) LittleEndian() bool { return d.little }

// Remaining returns the number of unconsumed octets.
func (d *Decoder) Remaining() int { return len(d.data) - d.pos }

// Pos returns the current offset from the start of the stream.
func (d *Decoder) Pos() int { return d.pos }

func (d *Decoder) order() binary.ByteOrder {
	if d.little {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

func (d *Decoder) align(n int) {
	d.pos += (n - d.pos%n) % n
}

func (d *Decoder) need(n int) error {
	if d.pos+n > len(d.data) {
		return fmt.Errorf("%w: need %d octets at offset %d of %d", ErrShortBuffer, n, d.pos, len(d.data))
	}
	return nil
}

// ReadOctet consumes one raw octet.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.data[d.pos]
	d.pos++
	return v, nil
}

// ReadOctets consumes n raw octets without alignment. The returned slice
// aliases the decoder's buffer.
func (d *Decoder) ReadOctets(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative count %d", ErrLengthOverflow, n)
	}
	if err := d.need(n); err != nil {
		return nil, err
	}
	v := d.data[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return v, nil
}

// ReadBoolean consumes a CDR boolean. Any non-zero octet is true, per the
// liberal-reader convention.
func (d *Decoder) ReadBoolean() (bool, error) {
	v, err := d.ReadOctet()
	return v != 0, err
}

// ReadChar consumes a CDR char.
func (d *Decoder) ReadChar() (byte, error) { return d.ReadOctet() }

// ReadShort consumes a 16-bit signed integer aligned on 2.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadUShort consumes a 16-bit unsigned integer aligned on 2.
func (d *Decoder) ReadUShort() (uint16, error) {
	d.align(2)
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := d.order().Uint16(d.data[d.pos:])
	d.pos += 2
	return v, nil
}

// ReadLong consumes a 32-bit signed integer aligned on 4.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULong consumes a 32-bit unsigned integer aligned on 4.
func (d *Decoder) ReadULong() (uint32, error) {
	d.align(4)
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := d.order().Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}

// ReadLongLong consumes a 64-bit signed integer aligned on 8.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadULongLong consumes a 64-bit unsigned integer aligned on 8.
func (d *Decoder) ReadULongLong() (uint64, error) {
	d.align(8)
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := d.order().Uint64(d.data[d.pos:])
	d.pos += 8
	return v, nil
}

// ReadFloat consumes an IEEE 754 single-precision float aligned on 4.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble consumes an IEEE 754 double-precision float aligned on 8.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString consumes a CDR string and validates the NUL terminator.
//
//coollint:hotpath representative warm decode root; audits the Read helpers
func (d *Decoder) ReadString() (string, error) {
	raw, err := d.ReadStringBytes()
	if err != nil {
		return "", err
	}
	return string(raw), nil //coollint:allocok string result must not alias the frame; interning callers use ReadStringBytes
}

// ReadStringBytes consumes a CDR string like ReadString but returns the
// raw octets (without the NUL) aliasing the decoder's buffer, performing no
// allocation. Use when the caller interns or copies the value itself.
func (d *Decoder) ReadStringBytes() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: zero length (must include NUL)", ErrInvalidString)
	}
	if int(n) > d.Remaining() {
		return nil, fmt.Errorf("%w: string length %d, %d remaining", ErrLengthOverflow, n, d.Remaining())
	}
	raw, err := d.ReadOctets(int(n))
	if err != nil {
		return nil, err
	}
	if raw[len(raw)-1] != 0 {
		return nil, fmt.Errorf("%w: missing NUL terminator", ErrInvalidString)
	}
	return raw[:len(raw)-1], nil
}

// ReadOctetSeq consumes a sequence<octet>. The returned slice aliases the
// decoder's buffer.
func (d *Decoder) ReadOctetSeq() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: sequence length %d, %d remaining", ErrLengthOverflow, n, d.Remaining())
	}
	return d.ReadOctets(int(n))
}

// ReadULongSeq consumes a sequence<unsigned long>.
func (d *Decoder) ReadULongSeq() ([]uint32, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if int64(n)*4 > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: sequence length %d, %d remaining", ErrLengthOverflow, n, d.Remaining())
	}
	vs := make([]uint32, n)
	for i := range vs {
		if vs[i], err = d.ReadULong(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// ReadStringSeq consumes a sequence<string>.
func (d *Decoder) ReadStringSeq() ([]string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	// Each string costs at least 5 octets (length + NUL).
	if int64(n)*5 > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: sequence length %d, %d remaining", ErrLengthOverflow, n, d.Remaining())
	}
	vs := make([]string, n)
	for i := range vs {
		if vs[i], err = d.ReadString(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// ReadEncapsulation consumes a sequence<octet> and returns a Decoder over
// its contents with the encapsulation's own byte order and alignment origin.
func (d *Decoder) ReadEncapsulation() (*Decoder, error) {
	body, err := d.ReadOctetSeq()
	if err != nil {
		return nil, err
	}
	return DecodeEncapsulation(body)
}

// DecodeEncapsulation returns a Decoder over a raw encapsulation body
// (byte-order flag followed by data).
func DecodeEncapsulation(body []byte) (*Decoder, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("%w: empty encapsulation", ErrShortBuffer)
	}
	inner := NewDecoder(body, body[0] != 0)
	if _, err := inner.ReadBoolean(); err != nil {
		return nil, err
	}
	return inner, nil
}
