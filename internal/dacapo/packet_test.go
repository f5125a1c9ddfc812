package dacapo

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPacketPrependStrip(t *testing.T) {
	p := NewPacket([]byte("payload"))
	hdr := p.Prepend(4)
	copy(hdr, "HDR!")
	if got := string(p.Bytes()); got != "HDR!payload" {
		t.Fatalf("bytes = %q", got)
	}
	if err := p.StripFront(4); err != nil {
		t.Fatal(err)
	}
	if got := string(p.Bytes()); got != "payload" {
		t.Fatalf("after strip = %q", got)
	}
}

func TestPacketPrependBeyondHeadroom(t *testing.T) {
	p := NewPacket([]byte("x"))
	big := p.Prepend(defaultHeadroom + 100)
	for i := range big {
		big[i] = 0xAA
	}
	if p.Len() != defaultHeadroom+100+1 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.Bytes()[p.Len()-1] != 'x' {
		t.Fatal("payload lost during headroom growth")
	}
}

func TestPacketAppendTrim(t *testing.T) {
	p := NewPacket([]byte("ab"))
	p.Append([]byte("cd"))
	if got := string(p.Bytes()); got != "abcd" {
		t.Fatalf("bytes = %q", got)
	}
	if err := p.TrimBack(2); err != nil {
		t.Fatal(err)
	}
	if got := string(p.Bytes()); got != "ab" {
		t.Fatalf("after trim = %q", got)
	}
	if err := p.TrimBack(5); err == nil {
		t.Fatal("over-trim should fail")
	}
	if err := p.StripFront(5); err == nil {
		t.Fatal("over-strip should fail")
	}
}

func TestPacketAppendGrows(t *testing.T) {
	p := NewPacket(nil)
	chunk := bytes.Repeat([]byte{7}, 1000)
	for i := 0; i < 5; i++ {
		p.Append(chunk)
	}
	if p.Len() != 5000 {
		t.Fatalf("len = %d", p.Len())
	}
	for _, b := range p.Bytes() {
		if b != 7 {
			t.Fatal("corrupted during growth")
		}
	}
}

func TestPacketClone(t *testing.T) {
	p := NewPacket([]byte("data"))
	c := p.Clone()
	p.Bytes()[0] = 'X'
	if string(c.Bytes()) != "data" {
		t.Fatal("clone shares storage with original")
	}
}

func TestPacketSetPayload(t *testing.T) {
	p := NewPacket([]byte("short"))
	p.SetPayload(bytes.Repeat([]byte{1}, 10_000))
	if p.Len() != 10_000 {
		t.Fatalf("len = %d", p.Len())
	}
	p.SetPayload(nil)
	if p.Len() != 0 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestPoolRecycles(t *testing.T) {
	p := GetPacket([]byte("abc"))
	if string(p.Bytes()) != "abc" {
		t.Fatalf("payload = %q", p.Bytes())
	}
	PutPacket(p)
	q := GetPacket([]byte("defg"))
	if string(q.Bytes()) != "defg" {
		t.Fatalf("recycled payload = %q", q.Bytes())
	}
	PutPacket(q)
	PutPacket(nil) // must not panic
}

// Property: prepend(n) followed by strip(n) restores the payload for any
// content and any n up to 4096.
func TestQuickPrependStripInverse(t *testing.T) {
	f := func(payload []byte, n uint16) bool {
		k := int(n) % 4096
		p := NewPacket(payload)
		hdr := p.Prepend(k)
		for i := range hdr {
			hdr[i] = byte(i)
		}
		if p.StripFront(k) != nil {
			return false
		}
		return bytes.Equal(p.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: append then trim restores the payload.
func TestQuickAppendTrimInverse(t *testing.T) {
	f := func(payload, tail []byte) bool {
		p := NewPacket(payload)
		p.Append(tail)
		if p.TrimBack(len(tail)) != nil {
			return false
		}
		return bytes.Equal(p.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPacketPrependStrip(b *testing.B) {
	p := NewPacket(bytes.Repeat([]byte{1}, 1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hdr := p.Prepend(8)
		hdr[0] = 1
		if err := p.StripFront(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolGetPut(b *testing.B) {
	payload := bytes.Repeat([]byte{1}, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PutPacket(GetPacket(payload))
	}
}
