// Package bindstate is a coollint test fixture for the explicit-binding
// lifecycle typestate: the types below mimic the structural shapes of
// Chic-generated stubs (proxy, ORB, Pending) without importing the orb
// package, proving the analyzer matches method sets, not named types.
package bindstate

// ORB matches the classORB shape: Shutdown plus a Resolve method.
type ORB struct{}

func (o *ORB) Shutdown()                  {}
func (o *ORB) Resolve(ref string) *Proxy  { return &Proxy{} }
func (o *ORB) ResolveString(s string) any { return nil }

// Proxy matches the classProxy shape: SetQoSParameter(x) error.
type Proxy struct{}

func (p *Proxy) SetQoSParameter(v int) error { return nil }
func (p *Proxy) Invoke(op string) error      { return nil }
func (p *Proxy) InvokeDeferred(op string) (*Pending, error) {
	return &Pending{}, nil
}

// Pending matches the classPending shape: Wait, Poll, Cancel.
type Pending struct{}

func (p *Pending) Wait() error { return nil }
func (p *Pending) Poll() bool  { return false }
func (p *Pending) Cancel()     {}

// --- violations ---

func useAfterShutdown() {
	o := &ORB{}
	p := o.Resolve("svc")
	o.Shutdown()
	_ = p.Invoke("echo") // want "invocation through a proxy of an ORB that was shut down"
}

func setQoSAfterShutdown() {
	o := &ORB{}
	p := o.Resolve("svc")
	o.Shutdown()
	if err := p.SetQoSParameter(3); err != nil { // want "SetQoSParameter on a proxy of an ORB that was shut down"
		return
	}
}

func discardedQoSError(p *Proxy) {
	p.SetQoSParameter(1) // want "SetQoSParameter error discarded"
}

func blankQoSError(p *Proxy) {
	_ = p.SetQoSParameter(2) // want "SetQoSParameter error discarded"
}

func abandonedPending(p *Proxy) {
	stale, _ := p.InvokeDeferred("op") // want "pending stale is never consumed; its request id holds one of the connection's 4096 in-flight slots"
	_ = stale                          // silences the compiler, consumes nothing
}

func discardedPending(p *Proxy) {
	_, _ = p.InvokeDeferred("op") // want "deferred invocation discarded; its request id holds one of the connection's 4096 in-flight slots"
}

// --- clean shapes ---

func useBeforeShutdown() {
	o := &ORB{}
	p := o.Resolve("svc")
	_ = p.Invoke("echo")
	o.Shutdown()
}

func shutdownDeferred() {
	o := &ORB{}
	p := o.Resolve("svc")
	defer o.Shutdown()
	_ = p.Invoke("echo")
}

func shutdownInBranchDoesNotDominate(cond bool) {
	o := &ORB{}
	p := o.Resolve("svc")
	if cond {
		o.Shutdown()
	}
	_ = p.Invoke("echo")
}

func checkedQoSError(p *Proxy) error {
	return p.SetQoSParameter(4)
}

func consumedPending(p *Proxy) error {
	pend, err := p.InvokeDeferred("op")
	if err != nil {
		return err
	}
	return pend.Wait()
}

func canceledPending(p *Proxy) {
	pend, _ := p.InvokeDeferred("op")
	pend.Cancel()
}
