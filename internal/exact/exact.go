// Package exact implements the detailed continuous-time Markov chain M of
// Sect. III-B (Table I): the joint state of all K SCs in the federation,
// tracking each SC's local request count q_i and the sharing matrix
// s_{i,j} (VMs at SC j serving SC i's requests). The state space grows
// exponentially with K — the very problem motivating the approximate model
// — so this package is intended for small federations (K <= 3), where it
// serves as the numerical ground truth next to the discrete-event
// simulator.
package exact

import (
	"fmt"
	"math"

	"scshare/internal/cloud"
	"scshare/internal/markov"
	"scshare/internal/queueing"
)

// Config parameterizes the detailed model.
type Config struct {
	Federation cloud.Federation
	// Shares is S_i for every SC.
	Shares []int
	// Solver options; zero values select defaults.
	Solver markov.SteadyStateOptions
}

// state is one point of the joint state space. q has K entries; s is the
// K x K sharing matrix flattened row-major with the diagonal unused.
type state struct {
	q []int
	s []int // s[i*K+j] = VMs at SC j used by SC i, i != j
}

func (st state) key(k int) string {
	buf := make([]byte, 0, len(st.q)+len(st.s))
	for _, v := range st.q {
		buf = append(buf, byte(v))
	}
	for _, v := range st.s {
		buf = append(buf, byte(v))
	}
	return string(buf)
}

func (st state) clone() state {
	c := state{q: make([]int, len(st.q)), s: make([]int, len(st.s))}
	copy(c.q, st.q)
	copy(c.s, st.s)
	return c
}

// Model is the solved detailed chain.
type Model struct {
	cfg     Config
	k       int
	states  []state
	pi      []float64
	metrics []cloud.Metrics
}

// DefaultQueueCap returns the truncation level of SC i's own requests
// (q_i <= DefaultQueueCap): beyond it the admission probability has decayed
// to numerical zero even with the whole federation pool assisting.
func DefaultQueueCap(sc cloud.SC, pool int) int {
	v := sc.VMs + pool
	mean := float64(v) * sc.ServiceRate * sc.SLA
	return sc.VMs + int(math.Ceil(mean+10*math.Sqrt(mean))) + 10
}

// Solve enumerates and solves the detailed chain.
func Solve(cfg Config) (*Model, error) {
	if err := cfg.Federation.Validate(); err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	if err := cfg.Federation.ValidateShares(cfg.Shares); err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	k := len(cfg.Federation.SCs)
	caps := make([]int, k)
	for i, sc := range cfg.Federation.SCs {
		caps[i] = DefaultQueueCap(sc, cloud.PoolExcluding(cfg.Shares, i))
	}
	m := &Model{cfg: cfg, k: k}
	index := make(map[string]int)
	m.enumerate(caps, index)
	if err := m.solve(index); err != nil {
		return nil, err
	}
	m.computeMetrics()
	return m, nil
}

// enumerate lists every legal state: q_i <= cap_i and, for every lender j,
// sum_i s_{i,j} <= S_j.
func (m *Model) enumerate(caps []int, index map[string]int) {
	k := m.k
	cur := state{q: make([]int, k), s: make([]int, k*k)}
	var cells []int // flattened off-diagonal cells in deterministic order
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				cells = append(cells, i*k+j)
			}
		}
	}
	var recQ func(int)
	var recS func(int)
	recS = func(ci int) {
		if ci == len(cells) {
			st := cur.clone()
			index[st.key(k)] = len(m.states)
			m.states = append(m.states, st)
			return
		}
		cell := cells[ci]
		j := cell % k
		budget := m.cfg.Shares[j]
		used := 0
		for i := 0; i < k; i++ {
			if i != j {
				used += cur.s[i*k+j]
			}
		}
		for v := 0; v+used <= budget; v++ {
			cur.s[cell] = v
			recS(ci + 1)
		}
		cur.s[cell] = 0
	}
	recQ = func(i int) {
		if i == k {
			recS(0)
			return
		}
		for q := 0; q <= caps[i]; q++ {
			cur.q[i] = q
			recQ(i + 1)
		}
		cur.q[i] = 0
	}
	recQ(0)
}

// Derived per-SC quantities of one state.
func (m *Model) lentOut(st state, j int) int {
	t := 0
	for i := 0; i < m.k; i++ {
		if i != j {
			t += st.s[i*m.k+j]
		}
	}
	return t
}

func (m *Model) borrowed(st state, i int) int {
	t := 0
	for j := 0; j < m.k; j++ {
		if j != i {
			t += st.s[i*m.k+j]
		}
	}
	return t
}

func (m *Model) localBusy(st state, i int) int {
	free := m.cfg.Federation.SCs[i].VMs - m.lentOut(st, i)
	if st.q[i] < free {
		return st.q[i]
	}
	return free
}

// hasLocalIdle reports whether SC i has an idle VM for its own arrival.
func (m *Model) hasLocalIdle(st state, i int) bool {
	return st.q[i]+m.lentOut(st, i) < m.cfg.Federation.SCs[i].VMs
}

// hasWaiting reports whether SC i has requests waiting in its queue.
func (m *Model) hasWaiting(st state, i int) bool {
	return st.q[i] > m.cfg.Federation.SCs[i].VMs-m.lentOut(st, i)
}

// canLend reports whether SC j can start serving one more foreign request.
func (m *Model) canLend(st state, j int) bool {
	return m.hasLocalIdle(st, j) && m.lentOut(st, j) < m.cfg.Shares[j]
}

// pNoForward evaluates the admission probability for an arrival at SC i in
// state st, consistent with Sect. III-A generalized to the federation: the
// SC currently commands V_i = N_i - lentOut_i + borrowed_i servers and has
// q_i + borrowed_i requests in its system.
func (m *Model) pNoForward(st state, i int) float64 {
	sc := m.cfg.Federation.SCs[i]
	v := sc.VMs - m.lentOut(st, i) + m.borrowed(st, i)
	return queueing.PNoForward(st.q[i]+m.borrowed(st, i), v, sc.ServiceRate, sc.SLA)
}

// solve builds the generator per Table I and computes the steady state.
func (m *Model) solve(index map[string]int) error {
	k := m.k
	b := markov.NewBuilder(len(m.states))
	// A transition out of the enumerated state space means the generator
	// construction and the enumeration disagree — an internal invariant
	// violation. Surface it as an error (the closure records the first one)
	// instead of panicking out of a sweep.
	var toErr error
	to := func(st state) int {
		id, ok := index[st.key(k)]
		if !ok {
			if toErr == nil {
				toErr = fmt.Errorf("exact: transition to unenumerated state %v/%v", st.q, st.s)
			}
			return 0
		}
		return id
	}
	for si, st := range m.states {
		for i, sc := range m.cfg.Federation.SCs {
			m.addArrival(b, si, st, i, sc, to)
			m.addLocalDeparture(b, si, st, i, sc, to)
			m.addRemoteDepartures(b, si, st, i, to)
		}
	}
	if toErr != nil {
		return toErr
	}
	chain, err := b.Build()
	if err != nil {
		return fmt.Errorf("exact: %w", err)
	}
	pi, err := chain.SteadyState(m.cfg.Solver)
	if err != nil {
		return fmt.Errorf("exact: %w", err)
	}
	m.pi = pi
	return nil
}

// addArrival implements Table I rows 1-2 plus queue-or-forward.
func (m *Model) addArrival(b *markov.Builder, si int, st state, i int, sc cloud.SC, to func(state) int) {
	if m.hasLocalIdle(st, i) {
		n := st.clone()
		n.q[i]++
		b.Add(si, to(n), sc.ArrivalRate)
		return
	}
	// Borrow from the least-loaded available lender.
	ties := m.argBest(st, i, true)
	if len(ties) > 0 {
		r := sc.ArrivalRate / float64(len(ties))
		for _, l := range ties {
			n := st.clone()
			n.s[i*m.k+l]++
			b.Add(si, to(n), r)
		}
		return
	}
	// Queue with probability P^NF; forwarded mass leaves the system.
	if st.q[i] < m.capOf(st, i) {
		p := m.pNoForward(st, i)
		if p > 0 {
			n := st.clone()
			n.q[i]++
			b.Add(si, to(n), sc.ArrivalRate*p)
		}
	}
}

// capOf returns the truncation level implied by the enumerated states.
func (m *Model) capOf(st state, i int) int {
	// All states with the same sharing pattern share the q grid, which was
	// enumerated up to caps[i]; recover it lazily from the model config.
	return DefaultQueueCap(m.cfg.Federation.SCs[i], cloud.PoolExcluding(m.cfg.Shares, i))
}

// addLocalDeparture implements Table I rows 3-4: completion of one of SC
// i's own requests on SC i's VMs, and reassignment of the freed VM.
func (m *Model) addLocalDeparture(b *markov.Builder, si int, st state, i int, sc cloud.SC, to func(state) int) {
	busy := m.localBusy(st, i)
	if busy == 0 {
		return
	}
	rate := float64(busy) * sc.ServiceRate
	after := st.clone()
	after.q[i]--
	if m.hasWaiting(st, i) || m.lentOut(st, i) >= m.cfg.Shares[i] {
		// Freed VM absorbed by SC i's own queue, or lending budget is
		// exhausted: no reassignment.
		b.Add(si, to(after), rate)
		return
	}
	// Hand the freed VM to the most-loaded waiting borrower, if any.
	ties := m.argBest(after, i, false)
	if len(ties) == 0 {
		b.Add(si, to(after), rate)
		return
	}
	r := rate / float64(len(ties))
	for _, borrower := range ties {
		n := after.clone()
		n.q[borrower]--
		n.s[borrower*m.k+i]++
		b.Add(si, to(n), r)
	}
}

// addRemoteDepartures implements Table I rows 5-6: completion of SC i's
// requests running at other SCs, and reassignment of the freed VM there.
func (m *Model) addRemoteDepartures(b *markov.Builder, si int, st state, i int, to func(state) int) {
	for j := 0; j < m.k; j++ {
		if j == i || st.s[i*m.k+j] == 0 {
			continue
		}
		rate := float64(st.s[i*m.k+j]) * m.cfg.Federation.SCs[j].ServiceRate
		after := st.clone()
		after.s[i*m.k+j]--
		// If SC j had waiting requests before the completion, the VM is
		// reabsorbed locally (its in-service count rises implicitly as
		// lentOut_j drops); the pre-decrement state carries exactly the
		// condition "q_j >= own capacity after freeing".
		if m.hasWaiting(st, j) || m.lentOut(after, j) >= m.cfg.Shares[j] {
			b.Add(si, to(after), rate)
			continue
		}
		ties := m.argBest(after, j, false)
		if len(ties) == 0 {
			b.Add(si, to(after), rate)
			continue
		}
		r := rate / float64(len(ties))
		for _, borrower := range ties {
			n := after.clone()
			n.q[borrower]--
			n.s[borrower*m.k+j]++
			b.Add(si, to(n), r)
		}
	}
}

// argBest returns, for lender selection (wantLender=true), the set of SCs
// able to lend to SC i with the minimum load q_l + lentOut_l; for borrower
// selection (wantLender=false), the set of SCs (other than i) with the
// largest number of waiting requests. The tie sets implement the uniform
// tie-breaking of Table I.
func (m *Model) argBest(st state, i int, wantLender bool) []int {
	var ties []int
	best := 0
	for l := 0; l < m.k; l++ {
		if l == i {
			continue
		}
		var load int
		if wantLender {
			if !m.canLend(st, l) {
				continue
			}
			load = st.q[l] + m.lentOut(st, l)
		} else {
			if !m.hasWaiting(st, l) {
				continue
			}
			load = st.q[l] - (m.cfg.Federation.SCs[l].VMs - m.lentOut(st, l))
		}
		if len(ties) == 0 {
			ties, best = []int{l}, load
			continue
		}
		better := load < best
		if !wantLender {
			better = load > best
		}
		switch {
		case better:
			ties, best = []int{l}, load
		case load == best:
			ties = append(ties, l)
		}
	}
	return ties
}

func (m *Model) computeMetrics() {
	k := m.k
	m.metrics = make([]cloud.Metrics, k)
	for i, sc := range m.cfg.Federation.SCs {
		var lend, borrow, busy, fwd float64
		for si, st := range m.states {
			p := m.pi[si]
			if p == 0 {
				continue
			}
			lend += p * float64(m.lentOut(st, i))
			borrow += p * float64(m.borrowed(st, i))
			busy += p * float64(m.localBusy(st, i)+m.lentOut(st, i))
			// An arrival is at risk of forwarding only when SC i has no
			// local idle VM and no lender is available (Table I row 1-2
			// conditions both fail).
			if !m.hasLocalIdle(st, i) && len(m.argBest(st, i, true)) == 0 {
				pf := 1 - m.pNoForward(st, i)
				if st.q[i] >= m.capOf(st, i) {
					pf = 1
				}
				fwd += p * pf
			}
		}
		m.metrics[i] = cloud.Metrics{
			PublicRate:  sc.ArrivalRate * fwd,
			BorrowRate:  borrow,
			LendRate:    lend,
			Utilization: busy / float64(sc.VMs),
			ForwardProb: fwd,
		}
	}
}

// Metrics returns the performance parameters of SC i.
func (m *Model) Metrics(i int) cloud.Metrics { return m.metrics[i] }

// AllMetrics returns a copy of every SC's metrics.
func (m *Model) AllMetrics() []cloud.Metrics {
	out := make([]cloud.Metrics, len(m.metrics))
	copy(out, m.metrics)
	return out
}

// NumStates returns the size of the enumerated state space.
func (m *Model) NumStates() int { return len(m.states) }

// StateSpaceSize estimates the number of states the detailed model needs
// for a federation without building it; used by the Fig. 8a comparison
// against the approximate model.
func StateSpaceSize(fed cloud.Federation, shares []int) float64 {
	size := 1.0
	for i, sc := range fed.SCs {
		qs := float64(DefaultQueueCap(sc, cloud.PoolExcluding(shares, i)) + 1)
		size *= qs
		// Sharing columns: number of ways the other SCs can occupy up to
		// S_i shared VMs, a (K-1)-composition bound.
		k := len(fed.SCs)
		size *= compositions(shares[i], k-1)
	}
	return size
}

// compositions counts non-negative integer vectors of length parts with
// sum at most budget.
func compositions(budget, parts int) float64 {
	if parts == 0 {
		return 1
	}
	// sum_{t=0}^{budget} C(t+parts-1, parts-1) = C(budget+parts, parts)
	out := 1.0
	for r := 1; r <= parts; r++ {
		out = out * float64(budget+r) / float64(r)
	}
	return out
}
