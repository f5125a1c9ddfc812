package transport

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"cool/internal/bufpool"
)

// TestInprocBatchIsOneElement: a WriteMessages of eight frames crosses the
// queue as one element. The reader gets the frames back in order, and
// Buffered stays true until it has read the last one. Close still lets
// it drain the element, and the holder returns to its pool.
func TestInprocBatchIsOneElement(t *testing.T) {
	bufpool.DebugReset()
	client, server := newInprocPair("batch")
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte(i)}, i+1)
	}
	if server.Buffered() {
		t.Fatal("Buffered before any write")
	}
	if err := client.WriteMessages(batch); err != nil {
		t.Fatal(err)
	}
	if n := len(server.recv); n != 1 {
		t.Fatalf("the batch took %d queue elements, want 1", n)
	}
	client.Close()
	for i, want := range batch {
		if !server.Buffered() {
			t.Fatalf("Buffered false before frame %d", i)
		}
		got, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d reads % x, want % x", i, got, want)
		}
		PutBuffer(got)
	}
	if server.Buffered() {
		t.Fatal("Buffered after the last frame")
	}
	if _, err := server.ReadMessage(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the batch: %v, want io.EOF", err)
	}
	if leaks := bufpool.Leaks(); len(leaks) != 0 {
		t.Fatalf("%d pooled objects live:\n%s", len(leaks), strings.Join(leaks, "\n"))
	}
}
