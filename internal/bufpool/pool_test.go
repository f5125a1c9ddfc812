package bufpool

import "testing"

type pooled struct {
	n    int
	data []byte
}

func TestPoolResetRunsOnPut(t *testing.T) {
	resets := 0
	p := NewPool(func(x *pooled) {
		resets++
		*x = pooled{}
	})
	x := p.Get()
	x.n, x.data = 7, []byte{1}
	p.Put(x)
	if resets != 1 {
		t.Fatalf("reset ran %d times on one Put, want 1", resets)
	}
	if x.n != 0 || x.data != nil {
		t.Fatalf("Put left %+v, want the reset zero value", *x)
	}
	if y := p.Get(); y.n != 0 || y.data != nil {
		t.Fatalf("Get returned %+v, want a reset object", *y)
	}
}
