package coolproto

import (
	"bytes"
	"testing"
	"testing/quick"

	"cool/internal/cdr"
	"cool/internal/giop"
	"cool/internal/qos"
)

var codec Codec

func TestRequestRoundTrip(t *testing.T) {
	for _, withQoS := range []bool{false, true} {
		hdr := &giop.RequestHeader{
			RequestID:        99,
			ResponseExpected: true,
			ObjectKey:        []byte("obj-9"),
			Operation:        "getFrame",
			Principal:        []byte("me"),
		}
		if withQoS {
			hdr.QoS = qos.Set{
				{Type: qos.Throughput, Request: 4096, Max: qos.NoLimit, Min: 128},
				{Type: qos.Latency, Request: 100, Max: 2000, Min: 0},
			}
		}
		frame, err := codec.MarshalRequest(hdr, func(enc *cdr.Encoder) {
			enc.WriteULong(7)
			enc.WriteString("body")
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := codec.UnmarshalPooled(frame)
		if err != nil {
			t.Fatal(err)
		}
		r := m.Request
		if r == nil || r.RequestID != 99 || !r.ResponseExpected ||
			string(r.ObjectKey) != "obj-9" || r.Operation != "getFrame" ||
			string(r.Principal) != "me" {
			t.Fatalf("request = %+v", r)
		}
		if !r.QoS.Equal(hdr.QoS) {
			t.Fatalf("qos = %v, want %v", r.QoS, hdr.QoS)
		}
		dec := m.BodyDecoder()
		if v, err := dec.ReadULong(); err != nil || v != 7 {
			t.Fatalf("body ulong = %d, %v", v, err)
		}
		if s, err := dec.ReadString(); err != nil || s != "body" {
			t.Fatalf("body string = %q, %v", s, err)
		}
	}
}

func TestRequestSmallerThanGIOP(t *testing.T) {
	hdr := &giop.RequestHeader{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        []byte("object-key-0001"),
		Operation:        "getFrame",
	}
	coolFrame, err := codec.MarshalRequest(hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	giopFrame, err := giop.MarshalRequest(giop.V1_0, cdr.BigEndian, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(coolFrame) >= len(giopFrame) {
		t.Fatalf("cool frame %d octets not smaller than GIOP %d", len(coolFrame), len(giopFrame))
	}
}

func TestReplyRoundTrip(t *testing.T) {
	frame, err := codec.MarshalReply(nil, &giop.ReplyHeader{
		RequestID: 41, Status: giop.ReplyUserException,
	}, func(enc *cdr.Encoder) { enc.WriteString("IDL:x/E:1.0") })
	if err != nil {
		t.Fatal(err)
	}
	m, err := codec.UnmarshalPooled(frame)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reply == nil || m.Reply.RequestID != 41 || m.Reply.Status != giop.ReplyUserException {
		t.Fatalf("reply = %+v", m.Reply)
	}
	if s, err := m.BodyDecoder().ReadString(); err != nil || s != "IDL:x/E:1.0" {
		t.Fatalf("body = %q, %v", s, err)
	}
}

func TestControlMessagesRoundTrip(t *testing.T) {
	cancel, err := codec.MarshalCancelRequest(5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := codec.UnmarshalPooled(cancel)
	if err != nil || m.CancelRequest == nil || m.CancelRequest.RequestID != 5 {
		t.Fatalf("cancel = %+v, %v", m, err)
	}

	lr, err := codec.MarshalLocateRequest(6, []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	m, err = codec.UnmarshalPooled(lr)
	if err != nil || m.LocateRequest == nil || string(m.LocateRequest.ObjectKey) != "key" {
		t.Fatalf("locate request = %+v, %v", m, err)
	}

	lrep, err := codec.MarshalLocateReply(nil, 6, giop.LocateObjectHere, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err = codec.UnmarshalPooled(lrep)
	if err != nil || m.LocateReply == nil || m.LocateReply.Status != giop.LocateObjectHere {
		t.Fatalf("locate reply = %+v, %v", m, err)
	}

	me, err := codec.MarshalMessageError()
	if err != nil {
		t.Fatal(err)
	}
	m, err = codec.UnmarshalPooled(me)
	if err != nil || m.Header.Type != giop.MsgMessageError {
		t.Fatalf("message error = %+v, %v", m, err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("GIOP\x01\x00"),         // wrong magic
		[]byte("COOL\x09\x00"),         // bad version
		[]byte("COOL\x01\x63"),         // bad type
		[]byte("COOL\x01\x00\x01"),     // truncated request
		[]byte("COOL\x01\x02\x01\x02"), // truncated cancel
		append([]byte("COOL\x01\x00\x01\x00\x00\x00\x01"), 0xFF, 0xFF), // huge key length
	}
	for i, frame := range bad {
		if _, err := codec.UnmarshalPooled(frame); err == nil {
			t.Errorf("frame %d accepted", i)
		}
	}
}

func TestQuickUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		codec.UnmarshalPooled(data)
		codec.UnmarshalPooled(append([]byte("COOL"), data...))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(id uint32, resp bool, key, principal []byte, op string, body []byte) bool {
		if len(key) > 0xFFFF || len(op) > 0xFFFF || len(principal) > 0xFFFF {
			return true
		}
		hdr := &giop.RequestHeader{
			RequestID:        id,
			ResponseExpected: resp,
			ObjectKey:        key,
			Operation:        op,
			Principal:        principal,
		}
		frame, err := codec.MarshalRequest(hdr, func(enc *cdr.Encoder) {
			enc.WriteOctets(body)
		})
		if err != nil {
			return false
		}
		m, err := codec.UnmarshalPooled(frame)
		if err != nil {
			return false
		}
		r := m.Request
		return r.RequestID == id && r.ResponseExpected == resp &&
			bytes.Equal(r.ObjectKey, key) && r.Operation == op &&
			bytes.Equal(r.Principal, principal) && bytes.Equal(m.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCoolVsGIOPMarshal(b *testing.B) {
	hdr := &giop.RequestHeader{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        []byte("object-key-0001"),
		Operation:        "getFrame",
		QoS:              qos.Set{{Type: qos.Throughput, Request: 1000, Max: qos.NoLimit}},
	}
	b.Run("cool", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame, err := codec.MarshalRequest(hdr, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := codec.UnmarshalPooled(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("giop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame, err := giop.MarshalRequest(giop.VQoS, cdr.BigEndian, hdr, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := giop.Unmarshal(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
