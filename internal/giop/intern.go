package giop

import "sync"

// Operation names form a small, stable vocabulary per deployment (they are
// IDL method names), so decoded Request headers intern them: the hot path
// does a read-locked map lookup keyed by the raw bytes — which Go performs
// without converting to a string — and allocates only the first time a
// name is seen. The table is bounded so a hostile peer streaming random
// operation names cannot grow it without limit; past the cap, lookups fall
// back to a per-message allocation.
const maxInternedOps = 4096

var (
	opMu  sync.RWMutex
	opTab = make(map[string]string, 64)
)

// InternOp returns the interned operation name for raw.
func InternOp(raw []byte) string {
	opMu.RLock()
	s, ok := opTab[string(raw)]
	opMu.RUnlock()
	if ok {
		return s
	}
	s = string(raw)
	opMu.Lock()
	if len(opTab) < maxInternedOps {
		opTab[s] = s
	}
	opMu.Unlock()
	return s
}
