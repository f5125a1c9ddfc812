// Package coolproto implements the proprietary COOL message protocol: the
// second protocol of COOL's generic message protocol layer ("COOL supports
// GIOP and the proprietary COOL protocol in the message layer", §2).
//
// Compared with GIOP it is a compact, fixed-little-endian framing with
// 16-bit length prefixes and a single flags octet — the kind of
// within-vendor optimisation the original used between COOL runtimes.
// Decoded messages use the shared giop.Message representation; bodies are
// standalone CDR streams (alignment origin at the body start).
//
// Frame layout (all integers little-endian):
//
//	magic "COOL" | version octet (1 = plain, 2 = QoS-extended) | type octet
//	Request:      id u32 | flags u8 (bit0 = response expected)
//	              | key u16+bytes | op u16+bytes | principal u16+bytes
//	              | [version 2: qos count u16, then 16 octets per parameter]
//	              | body...
//	Reply:        id u32 | status u8 | body...
//	Cancel:       id u32
//	LocateReq:    id u32 | key u16+bytes
//	LocateReply:  id u32 | status u8 | body...
//	Close/Error:  (empty)
package coolproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cool/internal/bufpool"
	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/qos"
)

// Codec implements the orb.Codec interface (declared structurally to avoid
// an import cycle).
type Codec struct{}

// Name returns "cool".
func (Codec) Name() string { return "cool" }

var magic = [4]byte{'C', 'O', 'O', 'L'}

const (
	verPlain = byte(1)
	verQoS   = byte(2)

	headerLen = 6 // magic + version + type
)

// Codec errors.
var (
	ErrBadFrame = errors.New("coolproto: malformed frame")
)

type writer struct {
	buf []byte
}

func (w *writer) u8(v byte) { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}
func (w *writer) blob16(p []byte) error {
	if len(p) > 0xFFFF {
		return fmt.Errorf("coolproto: field of %d octets exceeds 16-bit length", len(p))
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(p)))
	w.buf = append(w.buf, p...)
	return nil
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) u8() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrBadFrame
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.pos+2 > len(r.buf) {
		return 0, ErrBadFrame
	}
	v := binary.LittleEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.buf) {
		return 0, ErrBadFrame
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) blob16() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	if r.pos+int(n) > len(r.buf) {
		return nil, ErrBadFrame
	}
	v := r.buf[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return v, nil
}

func (r *reader) rest() []byte { return r.buf[r.pos:] }

// start opens a frame in a buffer drawn from the shared arena. On success
// the finished frame is returned to the ORB, which recycles it via
// transport.PutBuffer once written; error paths must hand the buffer back
// through discard instead.
//
//coollint:acquires
func start(version byte, t giop.MsgType) writer {
	w := writer{buf: bufpool.Get(64)}
	w.buf = append(w.buf, magic[:]...)
	w.u8(version)
	w.u8(byte(t))
	return w
}

// discard recycles the frame buffer of an abandoned writer.
//
//coollint:releases
func (w *writer) discard() {
	if w.buf != nil {
		bufpool.Put(w.buf)
		w.buf = nil
	}
}

// encodeBody runs fn against a standalone CDR encoder (big-endian,
// alignment origin at the body start) and appends the result.
func (w *writer) encodeBody(fn func(*cdr.Encoder)) {
	if fn == nil {
		return
	}
	enc := cdr.AcquireEncoder(cdr.BigEndian)
	fn(enc)
	w.buf = append(w.buf, enc.Bytes()...)
	cdr.ReleaseEncoder(enc)
}

// MarshalRequest implements the codec interface.
func (Codec) MarshalRequest(hdr *giop.RequestHeader, body func(*cdr.Encoder)) ([]byte, error) {
	version := verPlain
	if len(hdr.QoS) > 0 {
		version = verQoS
	}
	w := start(version, giop.MsgRequest)
	w.u32(hdr.RequestID)
	var flags byte
	if hdr.ResponseExpected {
		flags |= 1
	}
	w.u8(flags)
	if err := w.blob16(hdr.ObjectKey); err != nil {
		w.discard()
		return nil, err
	}
	if err := w.blob16([]byte(hdr.Operation)); err != nil {
		w.discard()
		return nil, err
	}
	if err := w.blob16(hdr.Principal); err != nil {
		w.discard()
		return nil, err
	}
	if version == verQoS {
		if len(hdr.QoS) > 0xFFFF {
			w.discard()
			return nil, fmt.Errorf("coolproto: %d qos parameters exceed 16-bit count", len(hdr.QoS))
		}
		w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(hdr.QoS)))
		for _, p := range hdr.QoS {
			w.u32(uint32(p.Type))
			w.u32(p.Request)
			w.u32(uint32(p.Max))
			w.u32(uint32(p.Min))
		}
	}
	w.encodeBody(body)
	return w.buf, nil
}

// MarshalReply implements the codec interface.
func (Codec) MarshalReply(req *giop.Message, hdr *giop.ReplyHeader, body func(*cdr.Encoder)) ([]byte, error) {
	w := start(verPlain, giop.MsgReply)
	w.u32(hdr.RequestID)
	w.u8(byte(hdr.Status))
	w.encodeBody(body)
	return w.buf, nil
}

// MarshalCancelRequest implements the codec interface.
func (Codec) MarshalCancelRequest(requestID uint32) ([]byte, error) {
	w := start(verPlain, giop.MsgCancelRequest)
	w.u32(requestID)
	return w.buf, nil
}

// MarshalLocateRequest implements the codec interface.
func (Codec) MarshalLocateRequest(requestID uint32, objectKey []byte) ([]byte, error) {
	w := start(verPlain, giop.MsgLocateRequest)
	w.u32(requestID)
	if err := w.blob16(objectKey); err != nil {
		w.discard()
		return nil, err
	}
	return w.buf, nil
}

// MarshalLocateReply implements the codec interface.
func (Codec) MarshalLocateReply(req *giop.Message, requestID uint32, status giop.LocateStatus, body func(*cdr.Encoder)) ([]byte, error) {
	w := start(verPlain, giop.MsgLocateReply)
	w.u32(requestID)
	w.u8(byte(status))
	w.encodeBody(body)
	return w.buf, nil
}

// MarshalMessageError implements the codec interface.
func (Codec) MarshalMessageError() ([]byte, error) {
	w := start(verPlain, giop.MsgMessageError)
	return w.buf, nil
}

// MarshalCloseConnection implements the codec interface.
func (Codec) MarshalCloseConnection() ([]byte, error) {
	w := start(verPlain, giop.MsgCloseConnection)
	return w.buf, nil
}

// UnmarshalPooled implements the codec interface, decoding into a pooled
// giop.Message (the shared representation, with a standalone body) that
// takes ownership of frame on success; on error the caller keeps it.
func (Codec) UnmarshalPooled(frame []byte) (*giop.Message, error) {
	if len(frame) < headerLen || [4]byte(frame[:4]) != magic {
		return nil, ErrBadFrame
	}
	version := frame[4]
	if version != verPlain && version != verQoS {
		return nil, fmt.Errorf("%w: version %d", ErrBadFrame, version)
	}
	t := giop.MsgType(frame[5])
	if t > giop.MsgMessageError {
		return nil, fmt.Errorf("%w: message type %d", ErrBadFrame, frame[5])
	}
	m := giop.AcquireMessage()
	m.Prepare(t, frame)
	if err := decodeInto(m, version, frame); err != nil {
		m.Prepare(t, nil)
		giop.ReleaseMessage(m)
		return nil, err
	}
	return m, nil
}

// ReleaseMessage implements the codec interface: the message and its frame
// return to their pools.
func (Codec) ReleaseMessage(m *giop.Message) { giop.ReleaseMessage(m) }

// decodeInto fills the header storage Prepare aimed m at, and the body.
func decodeInto(m *giop.Message, version byte, frame []byte) error {
	r := &reader{buf: frame, pos: headerLen}
	var err error
	switch m.Header.Type {
	case giop.MsgRequest:
		hdr := m.Request
		if hdr.RequestID, err = r.u32(); err != nil {
			return err
		}
		flags, err := r.u8()
		if err != nil {
			return err
		}
		hdr.ResponseExpected = flags&1 != 0
		if hdr.ObjectKey, err = r.blob16(); err != nil {
			return err
		}
		op, err := r.blob16()
		if err != nil {
			return err
		}
		hdr.Operation = giop.InternOp(op)
		if hdr.Principal, err = r.blob16(); err != nil {
			return err
		}
		if version == verQoS {
			n, err := r.u16()
			if err != nil {
				return err
			}
			if int(n)*16 > len(r.rest()) {
				return fmt.Errorf("%w: qos count %d", ErrBadFrame, n)
			}
			for i := 0; i < int(n); i++ {
				var p qos.Parameter
				var v uint32
				if v, err = r.u32(); err != nil {
					return err
				}
				p.Type = qos.ParamType(v)
				if p.Request, err = r.u32(); err != nil {
					return err
				}
				if v, err = r.u32(); err != nil {
					return err
				}
				p.Max = int32(v)
				if v, err = r.u32(); err != nil {
					return err
				}
				p.Min = int32(v)
				hdr.QoS = append(hdr.QoS, p)
			}
		}
	case giop.MsgReply:
		if m.Reply.RequestID, err = r.u32(); err != nil {
			return err
		}
		st, err := r.u8()
		if err != nil {
			return err
		}
		m.Reply.Status = giop.ReplyStatus(st)
	case giop.MsgCancelRequest:
		if m.CancelRequest.RequestID, err = r.u32(); err != nil {
			return err
		}
	case giop.MsgLocateRequest:
		if m.LocateRequest.RequestID, err = r.u32(); err != nil {
			return err
		}
		if m.LocateRequest.ObjectKey, err = r.blob16(); err != nil {
			return err
		}
	case giop.MsgLocateReply:
		if m.LocateReply.RequestID, err = r.u32(); err != nil {
			return err
		}
		st, err := r.u8()
		if err != nil {
			return err
		}
		m.LocateReply.Status = giop.LocateStatus(st)
	case giop.MsgCloseConnection, giop.MsgMessageError:
		// empty
	}
	m.Body = r.rest()
	return nil
}
