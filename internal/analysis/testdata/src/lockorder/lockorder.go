// Package lockorder is a coollint test fixture: inconsistent lock
// acquisition orders (ABBA cycles, re-entrant self-deadlock) the
// lockorder analyzer must flag, plus consistent shapes it must accept.
package lockorder

import "sync"

// --- violations: a direct ABBA cycle ---

type pair struct {
	a sync.Mutex
	b sync.Mutex
	n int
}

func lockAB(p *pair) {
	p.a.Lock()
	p.b.Lock() // want "lock-order cycle: pair.b acquired while pair.a is held"
	p.n++
	p.b.Unlock()
	p.a.Unlock()
}

func lockBA(p *pair) {
	p.b.Lock()
	p.a.Lock() // want "lock-order cycle: pair.a acquired while pair.b is held"
	p.n--
	p.a.Unlock()
	p.b.Unlock()
}

// --- violations: one leg of the cycle hides inside a helper ---

type station struct {
	c sync.Mutex
	d sync.Mutex
	n int
}

func lockD(s *station) {
	s.d.Lock()
	s.n++
	s.d.Unlock()
}

func cThenHelperD(s *station) {
	s.c.Lock()
	lockD(s) // want "lock-order cycle: station.d acquired while station.c is held via call to lockD"
	s.c.Unlock()
}

func dThenC(s *station) {
	s.d.Lock()
	s.c.Lock() // want "lock-order cycle: station.c acquired while station.d is held"
	s.c.Unlock()
	s.d.Unlock()
}

// --- violations: one leg of the cycle is the ranged expression of a
// loop ---

type ledger struct {
	e  sync.Mutex
	f  sync.Mutex
	xs []int
	n  int
}

// snapshotF copies the entries under f.
func (s *ledger) snapshotF() []int {
	s.f.Lock()
	defer s.f.Unlock()
	return append([]int(nil), s.xs...)
}

func (s *ledger) sumUnderE() {
	s.e.Lock()
	for _, v := range s.snapshotF() { // want "lock-order cycle: ledger.f acquired while ledger.e is held via call to snapshotF"
		s.n += v
	}
	s.e.Unlock()
}

func (s *ledger) fThenE() {
	s.f.Lock()
	s.e.Lock() // want "lock-order cycle: ledger.e acquired while ledger.f is held"
	s.n++
	s.e.Unlock()
	s.f.Unlock()
}

// --- violations: re-entrant acquisition through a helper ---

type recur struct {
	m sync.Mutex
	n int
}

func bump(r *recur) {
	r.m.Lock()
	r.n++
	r.m.Unlock()
}

func bumpTwice(r *recur) {
	r.m.Lock()
	bump(r) // want "lock recur.m may be acquired via call to bump while recur.m is already held"
	r.m.Unlock()
}

// --- clean shapes ---

// ordered: both callers take x before y; one direction only is not a
// cycle.
type ordered struct {
	x sync.Mutex
	y sync.Mutex
	n int
}

func xyInc(o *ordered) {
	o.x.Lock()
	o.y.Lock()
	o.n++
	o.y.Unlock()
	o.x.Unlock()
}

func xyDec(o *ordered) {
	o.x.Lock()
	o.y.Lock()
	o.n--
	o.y.Unlock()
	o.x.Unlock()
}

// combineLocked is entered holding o.x and re-acquires it only after
// releasing — the combiner-writer protocol, not a self-deadlock.
func combineLocked(o *ordered) {
	o.x.Unlock()
	o.n++
	o.x.Lock()
}

func callsCombine(o *ordered) {
	o.x.Lock()
	combineLocked(o)
	o.x.Unlock()
}
