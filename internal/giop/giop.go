// Package giop implements the General Inter-ORB Protocol message layer of
// the COOL reproduction: the seven GIOP 1.0 messages (Request, Reply,
// CancelRequest, LocateRequest, LocateReply, CloseConnection, MessageError)
// plus the paper's QoS extension.
//
// The extension follows §4.2 of the paper exactly:
//
//   - The version field of the 12-octet GIOP message header distinguishes
//     standard GIOP (major 1, minor 0) from the QoS extension (major 9,
//     minor 9).
//   - Only the Request message is modified: the RequestHeader gains a
//     qos_params field (sequence<QoSParameter>) between operation and
//     requesting_principal.
//   - A server that cannot provide the requested QoS NACKs via the standard
//     CORBA exception mechanism: a Reply with reply_status SYSTEM_EXCEPTION
//     carrying NO_RESOURCES.
//
// All other messages are byte-identical in both versions, preserving the
// paper's backwards-compatibility goal: a client that never sets QoS speaks
// plain GIOP 1.0.
package giop

import (
	"errors"
	"fmt"
	"io"

	"cool/internal/bufpool"
	"cool/internal/cdr"
	"cool/internal/qos"
)

// Version is the GIOP protocol version in the message header.
type Version struct {
	Major uint8
	Minor uint8
}

// Protocol versions understood by this implementation.
var (
	// V1_0 is standard GIOP 1.0 (CORBA 2.0).
	V1_0 = Version{Major: 1, Minor: 0}
	// VQoS is the paper's QoS-extended GIOP, flagged as version 9.9.
	VQoS = Version{Major: 9, Minor: 9}
)

func (v Version) String() string { return fmt.Sprintf("GIOP %d.%d", v.Major, v.Minor) }

// QoSExtended reports whether the version carries qos_params in Request
// headers.
func (v Version) QoSExtended() bool { return v == VQoS }

// Supported reports whether this implementation can decode the version.
func (v Version) Supported() bool { return v == V1_0 || v == VQoS }

// MsgType enumerates the GIOP message kinds (CORBA 2.0 §12.2.1).
type MsgType uint8

// GIOP message types.
const (
	MsgRequest MsgType = iota
	MsgReply
	MsgCancelRequest
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgMessageError
)

var msgNames = [...]string{
	"Request", "Reply", "CancelRequest", "LocateRequest",
	"LocateReply", "CloseConnection", "MessageError",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// HeaderSize is the fixed size of the GIOP message header in octets.
const HeaderSize = 12

var magic = [4]byte{'G', 'I', 'O', 'P'}

// Codec errors.
var (
	ErrBadMagic           = errors.New("giop: bad magic")
	ErrUnsupportedVersion = errors.New("giop: unsupported version")
	ErrBadMessageType     = errors.New("giop: unknown message type")
	ErrTruncated          = errors.New("giop: truncated message")
	ErrTooLarge           = errors.New("giop: message exceeds size limit")
)

// MaxMessageSize bounds accepted message bodies; hostile message_size
// values beyond this are rejected before allocation.
const MaxMessageSize = 64 << 20

// Header is the GIOP message header common to all seven messages.
type Header struct {
	Version Version
	// LittleEndian is the byte_order flag: the sender's native order.
	LittleEndian bool
	Type         MsgType
	// Size is the body length in octets (excluding the header).
	Size uint32
}

// ReplyStatus enumerates the outcome field of a Reply message.
type ReplyStatus uint32

// Reply statuses (CORBA 2.0 §12.4.2).
const (
	ReplyNoException ReplyStatus = iota
	ReplyUserException
	ReplySystemException
	ReplyLocationForward
)

func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	}
	return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
}

// LocateStatus enumerates the outcome field of a LocateReply message.
type LocateStatus uint32

// Locate statuses.
const (
	LocateUnknownObject LocateStatus = iota
	LocateObjectHere
	LocateObjectForward
)

// ServiceContext is one IOP service context entry (id + encapsulated data).
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// RequestHeader is the header of a Request message. In VQoS streams it
// carries the paper's added qos_params field; in V1_0 streams QoS must be
// empty and is not encoded.
type RequestHeader struct {
	ServiceContext   []ServiceContext
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	// QoS is the qos_params field of the extended RequestHeader
	// (paper Figure 2-ii). Only encoded when the message version is VQoS.
	QoS qos.Set
	// QoSFrag, when non-nil, is the pre-encoded wire form of QoS as
	// produced by qos.EncodeSet from a 4-aligned stream position (the
	// encoding contains only 4-byte values, so it is position-independent
	// at any 4-aligned offset). MarshalRequest splices it instead of
	// re-encoding QoS, letting callers cache the bytes per binding.
	QoSFrag []byte
	// Principal is the requesting_principal identity blob.
	Principal []byte
	// traceBuf backs the trace service-context entry built by TraceSC, so
	// pooled headers carry trace context without a per-request slice.
	traceBuf [traceContextLen]byte
}

// ReplyHeader is the header of a Reply message.
type ReplyHeader struct {
	ServiceContext []ServiceContext
	RequestID      uint32
	Status         ReplyStatus
}

// CancelRequestHeader identifies the pending request to abandon.
type CancelRequestHeader struct {
	RequestID uint32
}

// LocateRequestHeader asks whether the peer can serve an object key.
type LocateRequestHeader struct {
	RequestID uint32
	ObjectKey []byte
}

// LocateReplyHeader answers a LocateRequest.
type LocateReplyHeader struct {
	RequestID uint32
	Status    LocateStatus
}

// Message is a decoded GIOP message. Decoded messages alias their frame:
// ObjectKey, Principal, service-context data, and Body all point into the
// received buffer, so a Message is valid only while its frame is.
type Message struct {
	Header Header
	// Exactly one of the following is set, according to Header.Type. For
	// decoded messages they point at storage embedded in the Message
	// itself, so decoding a header costs no extra allocation.
	Request       *RequestHeader
	Reply         *ReplyHeader
	CancelRequest *CancelRequestHeader
	LocateRequest *LocateRequestHeader
	LocateReply   *LocateReplyHeader
	// Body is the CDR-encoded payload following the message header:
	// operation parameters for Request, results or exception for Reply,
	// an IOR for LocateReply forwards. For decoded messages it aliases
	// the frame and is positioned via BodyDecoder.
	Body []byte
	// bodyOffset is the offset of Body within the full message, needed to
	// resume CDR alignment correctly when decoding.
	bodyOffset int
	// frame is the full received frame backing Body, recycled with the
	// message (nil for messages whose Body was set directly).
	frame []byte

	// Embedded storage reused across decodes of a pooled Message.
	reqStore    RequestHeader
	replyStore  ReplyHeader
	cancelStore CancelRequestHeader
	locReqStore LocateRequestHeader
	locRepStore LocateReplyHeader
	qosStore    qos.Set
	scStore     []ServiceContext
	bodyDec     cdr.Decoder
	pooled      bool
}

// BodyDecoder returns a CDR decoder positioned at the message body with the
// alignment origin of the full GIOP stream preserved. The decoder is
// embedded in the Message and reads the frame in place (no copy): it is
// reset on every call, so at most one body decode may be in progress per
// message, and it must not be used after the message is released.
func (m *Message) BodyDecoder() *cdr.Decoder {
	if m.bodyOffset > 0 {
		m.bodyDec.Reset(m.frame, m.Header.LittleEndian, m.bodyOffset)
	} else {
		m.bodyDec.Reset(m.Body, m.Header.LittleEndian, 0)
	}
	return &m.bodyDec
}

// Prepare readies a pooled Message for a frame of type t decoded by a codec
// outside this package (the COOL protocol): the header pointer for t is
// aimed at the Message's zeroed embedded storage, so the decode allocates
// nothing, and the Message takes ownership of frame — ReleaseMessage
// recycles both. The codec fills the header fields and sets Body to its
// standalone CDR body (alignment origin at the body start, unlike GIOP's).
// Prepare(t, nil) detaches the frame again, for a decode that failed.
func (m *Message) Prepare(t MsgType, frame []byte) {
	m.Header = Header{Type: t}
	m.frame, m.bodyOffset = frame, 0
	switch t {
	case MsgRequest:
		// The codec appends to Request.QoS directly, so the array the
		// previous request decode left behind is the one to reuse.
		m.reqStore = RequestHeader{QoS: m.reqStore.QoS[:0]}
		m.Request = &m.reqStore
	case MsgReply:
		m.replyStore = ReplyHeader{}
		m.Reply = &m.replyStore
	case MsgCancelRequest:
		m.cancelStore = CancelRequestHeader{}
		m.CancelRequest = &m.cancelStore
	case MsgLocateRequest:
		m.locReqStore = LocateRequestHeader{}
		m.LocateRequest = &m.locReqStore
	case MsgLocateReply:
		m.locRepStore = LocateReplyHeader{}
		m.LocateReply = &m.locRepStore
	}
}

// msgPool recycles Messages. The reset keeps the embedded header storage
// for the next decode and drops everything that aliases a frame.
var msgPool = bufpool.NewPool(func(m *Message) {
	m.Request, m.Reply, m.CancelRequest, m.LocateRequest, m.LocateReply = nil, nil, nil, nil, nil
	m.Body = nil
	m.frame = nil
	m.bodyOffset = 0
	m.bodyDec.Reset(nil, false, 0)
	m.pooled = false
})

// AcquireMessage returns a pooled Message for use with UnmarshalInto-style
// decoding. Release with ReleaseMessage.
func AcquireMessage() *Message {
	m := msgPool.Get()
	m.pooled = true
	return m
}

// ReleaseMessage returns a Message to the message pool, and the frame it
// decoded to the arena when the message came from UnmarshalPooled (or
// AcquireMessage). The message, its header fields, its BodyDecoder, and
// every slice aliasing the frame become invalid. A message produced by
// plain Unmarshal simply joins the pool — its frame stays the caller's —
// so callers may release unconditionally.
func ReleaseMessage(m *Message) {
	if m == nil {
		return
	}
	frame, pooled := m.frame, m.pooled
	msgPool.Put(m)
	if pooled && frame != nil {
		bufpool.Put(frame)
	}
}

// ReleaseFrame returns a marshalled frame to the shared buffer arena once
// it has been written to a transport. It is safe to call on any frame,
// pooled or not.
func ReleaseFrame(frame []byte) { bufpool.Put(frame) }

// encodeHeaderPlaceholder appends a 12-octet header with a zero size field;
// patchSize fixes the size once the body is known.
func encodeHeaderPlaceholder(enc *cdr.Encoder, v Version, t MsgType) {
	enc.WriteOctets(magic[:])
	enc.WriteOctet(v.Major)
	enc.WriteOctet(v.Minor)
	enc.WriteBoolean(enc.LittleEndian())
	enc.WriteOctet(uint8(t))
	enc.WriteULong(0)
}

func patchSize(frame []byte, littleEndian bool) {
	size := uint32(len(frame) - HeaderSize)
	b := frame[8:12]
	if littleEndian {
		b[0], b[1], b[2], b[3] = byte(size), byte(size>>8), byte(size>>16), byte(size>>24)
	} else {
		b[0], b[1], b[2], b[3] = byte(size>>24), byte(size>>16), byte(size>>8), byte(size)
	}
}

func encodeServiceContexts(enc *cdr.Encoder, scs []ServiceContext) {
	enc.WriteULong(uint32(len(scs)))
	for _, sc := range scs {
		enc.WriteULong(sc.ID)
		enc.WriteOctetSeq(sc.Data)
	}
}

// decodeServiceContexts reads the service-context list, appending to scs
// (usually a truncated scratch slice owned by the Message) so repeated
// decodes reuse its storage. Entry Data aliases the decoder's buffer.
func decodeServiceContexts(dec *cdr.Decoder, scs []ServiceContext) ([]ServiceContext, error) {
	n, err := dec.ReadULong()
	if err != nil {
		return nil, err
	}
	if int64(n)*8 > int64(dec.Remaining()) {
		return nil, fmt.Errorf("giop: service context count %d too large", n)
	}
	for i := uint32(0); i < n; i++ {
		var sc ServiceContext
		if sc.ID, err = dec.ReadULong(); err != nil {
			return nil, err
		}
		if sc.Data, err = dec.ReadOctetSeq(); err != nil {
			return nil, err
		}
		scs = append(scs, sc) //coollint:allocok amortized into the Message-owned scratch (scStore[:0])
	}
	return scs, nil
}

// MarshalRequest encodes a Request message. The version selects the header
// layout: qos_params is emitted only for VQoS; passing QoS parameters with
// V1_0 is an error (standard GIOP cannot carry them).
//
// The returned frame is drawn from the shared buffer arena: once it has
// been written to a transport (which copies or consumes it), hand it back
// via ReleaseFrame so steady-state marshalling allocates nothing.
//
//coollint:hotpath request marshal, one per invocation
func MarshalRequest(v Version, littleEndian bool, hdr *RequestHeader, body func(*cdr.Encoder)) ([]byte, error) {
	if !v.Supported() {
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedVersion, v)
	}
	if (len(hdr.QoS) > 0 || len(hdr.QoSFrag) > 0) && !v.QoSExtended() {
		return nil, fmt.Errorf("giop: %v cannot carry qos_params; use VQoS", v)
	}
	enc := cdr.AcquireEncoder(littleEndian)
	encodeHeaderPlaceholder(enc, v, MsgRequest)
	encodeServiceContexts(enc, hdr.ServiceContext)
	enc.WriteULong(hdr.RequestID)
	enc.WriteBoolean(hdr.ResponseExpected)
	enc.WriteOctetSeq(hdr.ObjectKey)
	enc.WriteString(hdr.Operation)
	if v.QoSExtended() {
		if hdr.QoSFrag != nil {
			// qos_params encoded once on the binding: splice the cached
			// bytes at the 4-aligned offset its encoding assumed.
			enc.Align(4)
			enc.WriteOctets(hdr.QoSFrag)
		} else {
			qos.EncodeSet(enc, hdr.QoS)
		}
	}
	enc.WriteOctetSeq(hdr.Principal)
	if body != nil {
		body(enc)
	}
	frame := enc.Detach()
	patchSize(frame, littleEndian)
	return frame, nil
}

// MarshalReply encodes a Reply message. Replies are version-independent;
// the version is echoed so a QoS-aware exchange stays self-describing.
// The returned frame is pooled; see MarshalRequest.
//
//coollint:hotpath reply marshal, one per dispatched request
func MarshalReply(v Version, littleEndian bool, hdr *ReplyHeader, body func(*cdr.Encoder)) ([]byte, error) {
	if !v.Supported() {
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedVersion, v)
	}
	enc := cdr.AcquireEncoder(littleEndian)
	encodeHeaderPlaceholder(enc, v, MsgReply)
	encodeServiceContexts(enc, hdr.ServiceContext)
	enc.WriteULong(hdr.RequestID)
	enc.WriteULong(uint32(hdr.Status))
	if body != nil {
		body(enc)
	}
	frame := enc.Detach()
	patchSize(frame, littleEndian)
	return frame, nil
}

// MarshalCancelRequest encodes a CancelRequest message.
func MarshalCancelRequest(v Version, littleEndian bool, requestID uint32) ([]byte, error) {
	if !v.Supported() {
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedVersion, v)
	}
	enc := cdr.AcquireEncoder(littleEndian)
	encodeHeaderPlaceholder(enc, v, MsgCancelRequest)
	enc.WriteULong(requestID)
	frame := enc.Detach()
	patchSize(frame, littleEndian)
	return frame, nil
}

// MarshalLocateRequest encodes a LocateRequest message.
func MarshalLocateRequest(v Version, littleEndian bool, requestID uint32, objectKey []byte) ([]byte, error) {
	if !v.Supported() {
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedVersion, v)
	}
	enc := cdr.AcquireEncoder(littleEndian)
	encodeHeaderPlaceholder(enc, v, MsgLocateRequest)
	enc.WriteULong(requestID)
	enc.WriteOctetSeq(objectKey)
	frame := enc.Detach()
	patchSize(frame, littleEndian)
	return frame, nil
}

// MarshalLocateReply encodes a LocateReply message. body (an IOR) is only
// present for LocateObjectForward.
func MarshalLocateReply(v Version, littleEndian bool, requestID uint32, status LocateStatus, body func(*cdr.Encoder)) ([]byte, error) {
	if !v.Supported() {
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedVersion, v)
	}
	enc := cdr.AcquireEncoder(littleEndian)
	encodeHeaderPlaceholder(enc, v, MsgLocateReply)
	enc.WriteULong(requestID)
	enc.WriteULong(uint32(status))
	if body != nil {
		body(enc)
	}
	frame := enc.Detach()
	patchSize(frame, littleEndian)
	return frame, nil
}

// MarshalCloseConnection encodes a CloseConnection message (no body).
func MarshalCloseConnection(v Version, littleEndian bool) ([]byte, error) {
	return marshalBodyless(v, littleEndian, MsgCloseConnection)
}

// MarshalMessageError encodes a MessageError message (no body).
func MarshalMessageError(v Version, littleEndian bool) ([]byte, error) {
	return marshalBodyless(v, littleEndian, MsgMessageError)
}

func marshalBodyless(v Version, littleEndian bool, t MsgType) ([]byte, error) {
	if !v.Supported() {
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedVersion, v)
	}
	enc := cdr.AcquireEncoder(littleEndian)
	encodeHeaderPlaceholder(enc, v, t)
	frame := enc.Detach()
	patchSize(frame, littleEndian)
	return frame, nil
}

// DecodeHeader decodes the 12-octet GIOP header. The remaining Size octets
// form the body.
func DecodeHeader(frame []byte) (Header, error) {
	var h Header
	if len(frame) < HeaderSize {
		return h, fmt.Errorf("%w: %d octets", ErrTruncated, len(frame))
	}
	if [4]byte(frame[:4]) != magic {
		return h, fmt.Errorf("%w: % x", ErrBadMagic, frame[:4])
	}
	h.Version = Version{Major: frame[4], Minor: frame[5]}
	if !h.Version.Supported() {
		return h, fmt.Errorf("%w: %v", ErrUnsupportedVersion, h.Version)
	}
	h.LittleEndian = frame[6] != 0
	h.Type = MsgType(frame[7])
	if h.Type > MsgMessageError {
		return h, fmt.Errorf("%w: %d", ErrBadMessageType, frame[7])
	}
	if h.LittleEndian {
		h.Size = uint32(frame[8]) | uint32(frame[9])<<8 | uint32(frame[10])<<16 | uint32(frame[11])<<24
	} else {
		h.Size = uint32(frame[8])<<24 | uint32(frame[9])<<16 | uint32(frame[10])<<8 | uint32(frame[11])
	}
	if h.Size > MaxMessageSize {
		return h, fmt.Errorf("%w: %d octets", ErrTooLarge, h.Size)
	}
	return h, nil
}

// Unmarshal decodes a complete GIOP message frame (header + body) into a
// freshly allocated Message that the caller may retain indefinitely (it
// still aliases frame; see Message).
func Unmarshal(frame []byte) (*Message, error) {
	m := new(Message)
	if err := decodeInto(m, frame); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalPooled decodes a frame into a pooled Message. On success the
// Message takes ownership of frame: ReleaseMessage returns both to their
// pools, and steady-state decoding allocates nothing (the operation string
// is interned, headers live inside the Message, sequences alias the
// frame). On error the caller keeps ownership of frame.
func UnmarshalPooled(frame []byte) (*Message, error) {
	m := AcquireMessage()
	if err := decodeInto(m, frame); err != nil {
		m.frame = nil
		ReleaseMessage(m)
		return nil, err
	}
	return m, nil
}

// decodeFail wraps a header-field decode error with the message type. A
// package-level function, not a closure inside decodeInto: a closure
// would capture the header and allocate on every decode, including the
// ones that succeed.
func decodeFail(t MsgType, err error) error {
	return fmt.Errorf("giop: decode %v: %w", t, err)
}

// decodeInto is the single warm decode spine: both Unmarshal and
// UnmarshalPooled land here.
//
//coollint:hotpath pooled unmarshal spine
func decodeInto(m *Message, frame []byte) error {
	h, err := DecodeHeader(frame)
	if err != nil {
		return err
	}
	if len(frame) != HeaderSize+int(h.Size) {
		return fmt.Errorf("%w: header says %d body octets, frame has %d",
			ErrTruncated, h.Size, len(frame)-HeaderSize)
	}
	m.Header = h
	dec := &m.bodyDec
	dec.Reset(frame, h.LittleEndian, HeaderSize)

	switch h.Type {
	case MsgRequest:
		m.reqStore = RequestHeader{}
		rh := &m.reqStore
		if rh.ServiceContext, err = decodeServiceContexts(dec, m.scStore[:0]); err != nil {
			return decodeFail(h.Type, err)
		}
		m.scStore = rh.ServiceContext[:0]
		if rh.RequestID, err = dec.ReadULong(); err != nil {
			return decodeFail(h.Type, err)
		}
		if rh.ResponseExpected, err = dec.ReadBoolean(); err != nil {
			return decodeFail(h.Type, err)
		}
		if rh.ObjectKey, err = dec.ReadOctetSeq(); err != nil {
			return decodeFail(h.Type, err)
		}
		var op []byte
		if op, err = dec.ReadStringBytes(); err != nil {
			return decodeFail(h.Type, err)
		}
		rh.Operation = InternOp(op)
		if h.Version.QoSExtended() {
			if rh.QoS, err = qos.DecodeSetAppend(dec, m.qosStore[:0]); err != nil {
				return decodeFail(h.Type, err)
			}
			m.qosStore = rh.QoS[:0]
		}
		if rh.Principal, err = dec.ReadOctetSeq(); err != nil {
			return decodeFail(h.Type, err)
		}
		m.Request = rh
	case MsgReply:
		m.replyStore = ReplyHeader{}
		rh := &m.replyStore
		if rh.ServiceContext, err = decodeServiceContexts(dec, m.scStore[:0]); err != nil {
			return decodeFail(h.Type, err)
		}
		m.scStore = rh.ServiceContext[:0]
		if rh.RequestID, err = dec.ReadULong(); err != nil {
			return decodeFail(h.Type, err)
		}
		var st uint32
		if st, err = dec.ReadULong(); err != nil {
			return decodeFail(h.Type, err)
		}
		rh.Status = ReplyStatus(st)
		m.Reply = rh
	case MsgCancelRequest:
		m.cancelStore = CancelRequestHeader{}
		ch := &m.cancelStore
		if ch.RequestID, err = dec.ReadULong(); err != nil {
			return decodeFail(h.Type, err)
		}
		m.CancelRequest = ch
	case MsgLocateRequest:
		m.locReqStore = LocateRequestHeader{}
		lh := &m.locReqStore
		if lh.RequestID, err = dec.ReadULong(); err != nil {
			return decodeFail(h.Type, err)
		}
		if lh.ObjectKey, err = dec.ReadOctetSeq(); err != nil {
			return decodeFail(h.Type, err)
		}
		m.LocateRequest = lh
	case MsgLocateReply:
		m.locRepStore = LocateReplyHeader{}
		lh := &m.locRepStore
		if lh.RequestID, err = dec.ReadULong(); err != nil {
			return decodeFail(h.Type, err)
		}
		var st uint32
		if st, err = dec.ReadULong(); err != nil {
			return decodeFail(h.Type, err)
		}
		lh.Status = LocateStatus(st)
		m.LocateReply = lh
	case MsgCloseConnection, MsgMessageError:
		// No body.
	}
	m.bodyOffset = dec.Pos()
	m.Body = frame[dec.Pos():]
	m.frame = frame
	return nil
}

// WriteFrame writes a complete marshalled frame to w.
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one GIOP message from a byte stream using the
// message_size header field for framing, as IIOP does over TCP.
func ReadFrame(r io.Reader) ([]byte, error) {
	hdr := make([]byte, HeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	h, err := DecodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, HeaderSize+int(h.Size))
	copy(frame, hdr)
	if _, err := io.ReadFull(r, frame[HeaderSize:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return frame, nil
}
