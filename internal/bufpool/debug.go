//go:build pooldebug

package bufpool

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"unsafe"
)

// DebugEnabled reports whether the pooldebug runtime verifier is compiled
// in (`go test -tags pooldebug`).
const DebugEnabled = true

// poisonByte overwrites released buffers so stale aliases read garbage
// instead of the next frame's bytes.
const poisonByte = 0xDB

type debugEntry struct {
	// obj pins the buffer's backing array or the pooled object: while an
	// entry exists its address cannot be reused by a fresh allocation, so
	// address keys stay unambiguous.
	obj   any
	stack callStack
}

// One ledger for buffers and typed objects, keyed by address.
var (
	debugMu sync.Mutex
	// live holds what Get handed out and Put has not yet taken back.
	live = map[unsafe.Pointer]debugEntry{}
	// free holds what Put took back and Get has not yet handed out again.
	free = map[unsafe.Pointer]debugEntry{}
)

// callStack records the program counters of a Get or Put: the innermost
// 32 frames, starting at that call. Recording formats nothing; String
// formats the frames only for a report.
type callStack struct {
	pcs [32]uintptr
	n   int
}

// callers records the stack of the Get or Put that called trackGet or
// trackPut.
func callers() (s callStack) {
	s.n = runtime.Callers(3, s.pcs[:])
	return s
}

func (s *callStack) String() string {
	var sb strings.Builder
	frames := runtime.CallersFrames(s.pcs[:s.n])
	for {
		f, more := frames.Next()
		fmt.Fprintf(&sb, "%s\n\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			return sb.String()
		}
	}
}

// describe names a ledger entry: a buffer by its capacity, an object by
// its type.
func describe(obj any) string {
	if b, ok := obj.([]byte); ok {
		return fmt.Sprintf("buffer cap=%d", cap(b))
	}
	return fmt.Sprintf("%T", obj)
}

// trackGet registers obj leaving its pool through Get.
func trackGet(key unsafe.Pointer, obj any) {
	st := callers()
	debugMu.Lock()
	delete(free, key)
	live[key] = debugEntry{obj: obj, stack: st}
	debugMu.Unlock()
}

// trackPut checks and registers obj re-entering its pool through Put,
// panicking with the competing stacks on a double release, and poisons
// buffer contents. Runs before obj re-enters the sync.Pool, so neither the
// poison nor a reset can race a legitimate re-acquisition.
func trackPut(key unsafe.Pointer, obj any) {
	now := callers()
	debugMu.Lock()
	if prev, ok := free[key]; ok {
		debugMu.Unlock()
		panic(fmt.Sprintf("bufpool: double Put of %s\n--- first release:\n%s\n--- second release:\n%s", describe(obj), prev.stack.String(), now.String()))
	}
	delete(live, key)
	free[key] = debugEntry{obj: obj, stack: now}
	debugMu.Unlock()
	if b, ok := obj.([]byte); ok {
		p := b[:cap(b)]
		for i := range p {
			p[i] = poisonByte
		}
	}
}

// Leaks formats every buffer and object currently held outside its pool
// with its acquisition stack. At a quiescent point (after releasing
// everything) a non-empty result means a leaked acquisition.
func Leaks() []string {
	debugMu.Lock()
	defer debugMu.Unlock()
	var out []string
	for _, e := range live {
		out = append(out, fmt.Sprintf("bufpool: leaked %s acquired at:\n%s", describe(e.obj), e.stack.String()))
	}
	return out
}

// DebugReset forgets all tracking state (test isolation).
func DebugReset() {
	debugMu.Lock()
	live = map[unsafe.Pointer]debugEntry{}
	free = map[unsafe.Pointer]debugEntry{}
	debugMu.Unlock()
}
