package orb

import (
	"fmt"

	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/transport"
)

// Codec is the generic message protocol layer of COOL (Figure 1): the ORB
// core speaks to it through this interface so message protocols are
// exchangeable — GIOP (the default, mandated by CORBA interoperability)
// and the proprietary, more compact COOL protocol both implement it.
//
// Decoded messages share the giop.Message representation regardless of
// wire protocol; codecs whose bodies are standalone CDR streams leave the
// message's body offset at zero.
type Codec interface {
	// Name is the protocol identifier carried in IOR profiles
	// ("giop", "cool").
	Name() string
	// MarshalRequest encodes a request. Codecs choose their own QoS
	// signalling (GIOP: version 9.9 header field) based on hdr.QoS.
	MarshalRequest(hdr *giop.RequestHeader, body func(*cdr.Encoder)) ([]byte, error)
	// MarshalReply encodes a reply to a request decoded as m (codecs may
	// need the request's version or flags).
	MarshalReply(req *giop.Message, hdr *giop.ReplyHeader, body func(*cdr.Encoder)) ([]byte, error)
	// MarshalCancelRequest encodes a cancellation.
	MarshalCancelRequest(requestID uint32) ([]byte, error)
	// MarshalLocateRequest encodes a locate query.
	MarshalLocateRequest(requestID uint32, objectKey []byte) ([]byte, error)
	// MarshalLocateReply encodes a locate answer.
	MarshalLocateReply(req *giop.Message, requestID uint32, status giop.LocateStatus, body func(*cdr.Encoder)) ([]byte, error)
	// MarshalMessageError encodes the protocol-error message.
	MarshalMessageError() ([]byte, error)
	// MarshalCloseConnection encodes the orderly-shutdown notification the
	// server sends before closing a connection (GIOP CloseConnection).
	MarshalCloseConnection() ([]byte, error)
	// UnmarshalPooled decodes one frame read from a transport into a
	// pooled message that takes ownership of the frame on success (on
	// error the caller keeps it).
	UnmarshalPooled(frame []byte) (*giop.Message, error)
	// ReleaseMessage recycles a message from UnmarshalPooled together
	// with its frame, honouring the transport.Channel buffer-ownership
	// contract. Safe to call with nil.
	ReleaseMessage(m *giop.Message)
}

// maxFrameSize bounds outbound frames to what every reader accepts: the
// tcp transport's frame limit and giop.MaxMessageSize are both 64 MiB.
const maxFrameSize = giop.MaxMessageSize

// boundFrame wraps a request or reply marshal: a frame over maxFrameSize
// is recycled and becomes a MARSHAL system exception for its invocation
// alone. Written out, it would make the peer's reader fail and the shared
// connection die under every other multiplexed caller.
func boundFrame(frame []byte, err error) ([]byte, error) {
	if err == nil && len(frame) > maxFrameSize {
		n := len(frame)
		transport.PutBuffer(frame)
		return nil, fmt.Errorf("orb: frame of %d octets exceeds the %d-octet limit: %w", n, maxFrameSize, giop.MarshalException())
	}
	return frame, err
}

// GIOPCodec is the standard message protocol: GIOP 1.0, upgraded to the
// QoS-extended 9.9 whenever a request carries QoS parameters (§4.2).
type GIOPCodec struct{}

var _ Codec = GIOPCodec{}

// UnmarshalPooled implements Codec.
func (GIOPCodec) UnmarshalPooled(frame []byte) (*giop.Message, error) {
	return giop.UnmarshalPooled(frame)
}

// ReleaseMessage implements Codec.
func (GIOPCodec) ReleaseMessage(m *giop.Message) {
	giop.ReleaseMessage(m)
}

// Name returns "giop".
func (GIOPCodec) Name() string { return "giop" }

// MarshalRequest implements Codec.
func (GIOPCodec) MarshalRequest(hdr *giop.RequestHeader, body func(*cdr.Encoder)) ([]byte, error) {
	return giop.MarshalRequest(giopRequestVersion(hdr), cdr.BigEndian, hdr, body)
}

// MarshalReply implements Codec, echoing the request's GIOP version.
func (GIOPCodec) MarshalReply(req *giop.Message, hdr *giop.ReplyHeader, body func(*cdr.Encoder)) ([]byte, error) {
	version := giop.V1_0
	if req != nil && req.Header.Version.Supported() {
		version = req.Header.Version
	}
	return giop.MarshalReply(version, cdr.BigEndian, hdr, body)
}

// MarshalCancelRequest implements Codec.
func (GIOPCodec) MarshalCancelRequest(requestID uint32) ([]byte, error) {
	return giop.MarshalCancelRequest(giop.V1_0, cdr.BigEndian, requestID)
}

// MarshalLocateRequest implements Codec.
func (GIOPCodec) MarshalLocateRequest(requestID uint32, objectKey []byte) ([]byte, error) {
	return giop.MarshalLocateRequest(giop.V1_0, cdr.BigEndian, requestID, objectKey)
}

// MarshalLocateReply implements Codec.
func (GIOPCodec) MarshalLocateReply(req *giop.Message, requestID uint32, status giop.LocateStatus, body func(*cdr.Encoder)) ([]byte, error) {
	version := giop.V1_0
	if req != nil && req.Header.Version.Supported() {
		version = req.Header.Version
	}
	return giop.MarshalLocateReply(version, cdr.BigEndian, requestID, status, body)
}

// MarshalMessageError implements Codec.
func (GIOPCodec) MarshalMessageError() ([]byte, error) {
	return giop.MarshalMessageError(giop.V1_0, cdr.BigEndian)
}

// MarshalCloseConnection implements Codec.
func (GIOPCodec) MarshalCloseConnection() ([]byte, error) {
	return giop.MarshalCloseConnection(giop.V1_0, cdr.BigEndian)
}

// MarshalRequest selects the QoS-extended version when the header carries
// either a decoded QoS set or a pre-encoded qos_params fragment.
func giopRequestVersion(hdr *giop.RequestHeader) giop.Version {
	if len(hdr.QoS) > 0 || len(hdr.QoSFrag) > 0 {
		return giop.VQoS
	}
	return giop.V1_0
}
