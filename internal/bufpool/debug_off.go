//go:build !pooldebug

package bufpool

import "unsafe"

// DebugEnabled reports whether the pooldebug runtime verifier is compiled
// in. In normal builds the hooks below are empty and inline to nothing.
const DebugEnabled = false

func trackGet(unsafe.Pointer, any) {}
func trackPut(unsafe.Pointer, any) {}

// Leaks always returns nil without the pooldebug tag.
func Leaks() []string { return nil }

// DebugReset is a no-op without the pooldebug tag.
func DebugReset() {}
