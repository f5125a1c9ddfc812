//go:build !pooldebug && !race

package bufpool

import "testing"

// TestPoolWarmGetPutAllocsNothing: the default build's Pool is a thin
// sync.Pool wrapper; a warm Get/Put pair must not allocate.
func TestPoolWarmGetPutAllocsNothing(t *testing.T) {
	p := NewPool(func(x *pooled) { x.n = 0 })
	p.Put(p.Get())
	allocs := testing.AllocsPerRun(1000, func() {
		x := p.Get()
		x.n++
		p.Put(x)
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Put allocated %.2f objects/op, want 0", allocs)
	}
}
