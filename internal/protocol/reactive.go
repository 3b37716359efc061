// The Section 5 reactive protocol (Breactive) as a protocol.Machine:
// certified propagation over a reactive reliable local broadcast built
// on the two-level AUED code, running on the shared slot-level engine
// stack.
//
// Mapping onto engine slots: a node that accepts schedules ONE local
// broadcast; each of its TDMA slots transmits one data message round
// (K·L sub-slots on the air, one engine transmission here). The machine
// re-runs the coding layer per round inside Deliver: one in-range bad
// node may attack the round's sub-bit patterns (or spam a fake NACK),
// receivers decode, detections raise NACKs, and any NACK schedules one
// retransmission at the sender via the returned Send. A local broadcast
// therefore ends exactly when a data round draws no NACK — which, with
// deterministic policies, happens precisely when the in-range attackers'
// budgets are exhausted. The paper's explicit quiet window of (2r+1)²−1
// NACK-free rounds would never change sends, deliveries or decisions
// here, only how long the sender keeps listening afterwards, so the
// machine has none.
//
// Local broadcasts proceed concurrently in TDMA slot order (the engines'
// time base); the golden reactive trace in the facade tests pins the
// resulting per-seed schedule, and the protocol's guarantees — certified
// propagation, Theorem 4 message bounds, forgery probability — hold
// under Sweep, cancellation, observers and the fast/ref/actor
// differential oracles.
package protocol

import (
	"fmt"
	"slices"

	"bftbcast/internal/auedcode"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
)

// Reactive is the Section 5 protocol machine. The protocol does not know
// the adversary budget mf (Env.Params.MF); it only knows MMax.
//
// A Reactive value is single-run-in-flight: the run record hands off
// through the machine (Finish → TakeStats), so concurrent runs must
// each attach their own machine value — the facade builds one per
// Engine.Run, and Sweep derives per-point scenarios that do the same.
type Reactive struct {
	// MMax is the loose budget bound known to the protocol (sets the
	// sub-bit length L). Must be >= max(1, mf).
	MMax int
	// PayloadBits is the broadcast message size k.
	PayloadBits int
	// Policy selects the adversary behavior (0 = PolicyDisrupt).
	Policy AttackPolicy

	// stats is the last finished instance's run record (see TakeStats).
	stats *ReactiveResult
}

// ReactiveResult is the run record of one reactive run. The machine
// publishes the protocol-side fields at Finish (see TakeStats); the
// outcome fields (Completed through BadCount, Decided, DecidedValue) are
// the engine's and are filled in by whoever assembles the report — the
// facade's Report.Reactive extension is this type.
type ReactiveResult struct {
	Completed      bool
	WrongDecisions int // good nodes holding a value != Vtrue at the end
	DecidedGood    int
	TotalGood      int
	BadCount       int

	LocalBroadcasts int
	MessageRounds   int // data rounds across all local broadcasts

	DataSends []int32 // per node
	NackSends []int32 // per node

	// MaxNodeMessages is the per-node maximum of data+NACK messages over
	// good non-source nodes; the Theorem 4 message bound is 2(t·mf+1).
	MaxNodeMessages int
	// MaxNodeSubSlots is MaxNodeMessages · K · L, comparable to the
	// Theorem 4 sub-slot budget.
	MaxNodeSubSlots int
	// Theorem4SubSlots is the paper's closed-form budget
	// 2(t·mf+1)(2·log n + log t + log mmax)(k + 2·log k + 2).
	Theorem4SubSlots int

	ForgedDeliveries int // undetected wrong values planted (prob ≈ 2^-L each)
	AttacksSpent     int // adversary messages consumed
	CodewordBits     int
	SubBitLength     int

	// Per-node final state, indexed by NodeID.
	Decided      []bool
	DecidedValue []radio.Value
	Bad          []bool // the resolved placement
}

// Name implements Machine.
func (m *Reactive) Name() string { return "reactive" }

// TakeStats returns (and clears) the run record published by the last
// instance that Finished. Engines call Finish before returning their
// result, so a successful Run is always followed by a non-nil TakeStats.
// Like Attach, it is part of the machine's single-run-in-flight
// contract: overlapping runs on one machine value race on the handoff.
func (m *Reactive) TakeStats() *ReactiveResult {
	s := m.stats
	m.stats = nil
	return s
}

// Attach implements Machine.
func (m *Reactive) Attach(env Env) (Instance, error) {
	if env.Plan == nil {
		return nil, fmt.Errorf("protocol: reactive machine needs a plan")
	}
	tor := env.Plan.Topo()
	r := tor.Range()
	t := env.Params.T
	if t < 0 || t > CPMaxT(r) {
		return nil, fmt.Errorf("protocol: reactive t=%d outside [0,%d] for r=%d", t, CPMaxT(r), r)
	}
	mf := env.Params.MF
	if mf < 0 {
		return nil, fmt.Errorf("protocol: reactive mf=%d must be >= 0", mf)
	}
	if m.MMax < 1 || m.MMax < mf {
		return nil, fmt.Errorf("protocol: reactive mmax=%d must be >= max(1, mf=%d)", m.MMax, mf)
	}
	if m.PayloadBits < 1 {
		return nil, fmt.Errorf("protocol: reactive payload bits %d", m.PayloadBits)
	}
	n := tor.Size()
	tEff := t
	if tEff == 0 {
		tEff = 1 // the code needs t >= 1; L only shrinks with t
	}
	code, err := auedcode.NewCode(m.PayloadBits, n, tEff, m.MMax)
	if err != nil {
		return nil, err
	}
	acc, err := NewAcceptance(AcceptConfig{
		Topo:         tor,
		Source:       env.Source,
		Threshold:    t + 1,
		Distinct:     true,
		SourceDirect: true,
	})
	if err != nil {
		return nil, err
	}
	adj := env.Plan.Adjacency()
	inst := &reactiveInstance{
		m:      m,
		env:    env,
		code:   code,
		acc:    acc,
		adj:    adj,
		rng:    stats.NewRNG(env.Seed),
		policy: m.Policy,
		t:      t,
		mf:     mf,
		served: make([]bool, len(adj.Nbrs)),
		rs: ReactiveResult{
			DataSends:        make([]int32, n),
			NackSends:        make([]int32, n),
			CodewordBits:     code.CodewordBits(),
			SubBitLength:     code.SubBitLength(),
			Theorem4SubSlots: core.Theorem4Budget(n, tEff, mf, m.MMax, m.PayloadBits),
		},
	}
	if inst.policy == 0 {
		inst.policy = PolicyDisrupt
	}
	inst.st.Decided = acc.Decided
	inst.st.Value = acc.Value
	inst.st.Correct = make([]int32, n)
	inst.st.Wrong = make([]int32, n)
	if env.Bad != nil {
		inst.budget = make([]radio.Budget, n)
		for i := range inst.budget {
			if env.Bad[i] {
				inst.budget[i] = radio.NewBudget(mf)
			}
		}
	}
	return inst, nil
}

// reactiveInstance is one run's reactive protocol state.
type reactiveInstance struct {
	m      *Reactive
	env    Env
	code   *auedcode.Code
	acc    *Acceptance
	adj    *radio.Adjacency
	rng    *stats.RNG
	policy AttackPolicy
	t, mf  int

	st     State
	budget []radio.Budget // bad-node attack budgets (nil when fault-free)
	// served marks (sender → receiver) CSR edges whose local broadcast
	// already delivered a payload, deduplicating retransmission rounds;
	// indexed by position in the adjacency's sorted rows.
	served []bool

	rounds []radio.Delivery // canonical per-slot scratch (sorted by From, To)
	ones   []int            // forge-attack scratch: 1-bit positions of the codeword
	rs     ReactiveResult
}

// State implements Instance.
func (e *reactiveInstance) State() *State { return &e.st }

// Bootstrap implements Instance: the source opens the first local
// broadcast with one data round.
func (e *reactiveInstance) Bootstrap(buf []Send) []Send {
	e.rs.LocalBroadcasts++
	return append(buf, Send{ID: e.env.Source, N: 1})
}

// Deliver implements Instance. The batch is canonicalized by (sender,
// receiver) so results are identical whichever engine produced it — the
// fast engine's merged receiver order and the dense reference engine's
// per-transmission walks feed the same rounds to the same RNG stream.
func (e *reactiveInstance) Deliver(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error) {
	if len(ds) == 0 {
		return buf, nil
	}
	e.rounds = append(e.rounds[:0], ds...)
	slices.SortFunc(e.rounds, func(a, b radio.Delivery) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	for lo := 0; lo < len(e.rounds); {
		hi := lo
		for hi < len(e.rounds) && e.rounds[hi].From == e.rounds[lo].From {
			hi++
		}
		var err error
		if buf, err = e.dataRound(slot, e.rounds[lo:hi], hooks, buf); err != nil {
			return buf, err
		}
		lo = hi
	}
	return buf, nil
}

// dataRound processes one sender's message round: encode, let one
// in-range bad node attack or spam, decode per receiver, raise NACKs,
// deliver clean (or undetectedly forged) payloads to certified
// propagation, and schedule the retransmission a NACK forces.
func (e *reactiveInstance) dataRound(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error) {
	sender := ds[0].From
	if e.env.bad(sender) {
		return buf, nil // bad nodes act through the attack policies
	}
	v := ds[0].Value
	e.rs.MessageRounds++
	e.rs.DataSends[sender]++
	payload := e.payloadFor(v)
	cw, err := e.code.Encode(payload, e.rng)
	if err != nil {
		return buf, err
	}
	attacked, attacker, err := e.attackRound(slot, sender, cw, hooks)
	if err != nil {
		return buf, err
	}
	var (
		attackedGot auedcode.BitString
		attackedErr error
	)
	if attacker != grid.None {
		attackedGot, attackedErr = e.code.ReceiveSub(attacked)
	}
	tor := e.env.Plan.Topo()
	row := e.adj.SortedNeighbors(sender)
	rowOff := int(e.adj.Off[sender])
	edge := 0
	nackHeard := false
	for _, d := range ds {
		to := d.To
		if e.env.bad(to) {
			continue
		}
		// Advance the CSR cursor to the receiver's edge slot (both the
		// round's receivers and the sorted row ascend).
		for edge < len(row) && row[edge] < to {
			edge++
		}
		got, derr := payload, error(nil)
		if attacker != grid.None && tor.Dist(to, attacker) <= tor.Range() {
			got, derr = attackedGot, attackedErr
		}
		switch {
		case derr == nil && got.Equal(payload):
			if !e.serve(rowOff, edge, row, to) {
				break
			}
			if hooks.OnDeliver != nil {
				hooks.OnDeliver(slot, radio.Delivery{To: to, From: sender, Value: v})
			}
			e.countPayload(to, v)
			buf = e.cpDeliver(slot, to, sender, v, hooks, buf)
		case derr == nil:
			// An undetected forgery: the receiver trusts a wrong payload.
			if !e.serve(rowOff, edge, row, to) {
				break
			}
			e.rs.ForgedDeliveries++
			fv := e.valueFor(got)
			if hooks.OnDeliver != nil {
				hooks.OnDeliver(slot, radio.Delivery{To: to, From: sender, Value: fv})
			}
			e.countPayload(to, fv)
			buf = e.cpDeliver(slot, to, sender, fv, hooks, buf)
		default:
			e.rs.NackSends[to]++
			nackHeard = true
		}
	}
	if e.spamNack(slot, sender, hooks) {
		nackHeard = true
	}
	if nackHeard {
		buf = append(buf, Send{ID: sender, N: 1})
	}
	return buf, nil
}

// serve marks the (sender → receiver) edge as delivered, returning false
// when an earlier round of this local broadcast already served it.
func (e *reactiveInstance) serve(rowOff, edge int, row []grid.NodeID, to grid.NodeID) bool {
	if edge >= len(row) || row[edge] != to {
		return true // not a plan edge (degenerate medium); deliver once, unserved
	}
	if e.served[rowOff+edge] {
		return false
	}
	e.served[rowOff+edge] = true
	return true
}

// countPayload tallies the payload delivery into the receipt counters.
func (e *reactiveInstance) countPayload(to grid.NodeID, v radio.Value) {
	if v == radio.ValueTrue {
		e.st.Correct[to]++
	} else {
		e.st.Wrong[to]++
	}
}

// cpDeliver hands a payload to certified propagation and, on acceptance,
// opens the receiver's own local broadcast.
func (e *reactiveInstance) cpDeliver(slot int, to, from grid.NodeID, v radio.Value, hooks *Hooks, buf []Send) []Send {
	if !e.acc.Deliver(to, from, v) {
		return buf
	}
	if hooks.OnAccept != nil {
		hooks.OnAccept(slot, to, v)
	}
	e.rs.LocalBroadcasts++
	return append(buf, Send{ID: to, N: 1})
}

// attackRound lets one bad node in range attack the round's sub-bit
// patterns. It returns the attacked sub-bit string and the attacker
// (grid.None when no attack happened).
func (e *reactiveInstance) attackRound(slot int, sender grid.NodeID, cw *auedcode.Codeword, hooks *Hooks) (auedcode.BitString, grid.NodeID, error) {
	attacker := e.armedNeighbor(sender)
	if attacker == grid.None {
		return auedcode.BitString{}, grid.None, nil
	}
	policy := e.policy
	if policy == PolicyMixed {
		switch e.rs.AttacksSpent % 3 {
		case 0:
			policy = PolicyDisrupt
		case 1:
			policy = PolicyForge
		default:
			policy = PolicyNackSpam
		}
	}
	if policy == PolicyNackSpam {
		return auedcode.BitString{}, grid.None, nil // handled in spamNack
	}
	if !e.budget[attacker].TrySpend() {
		return auedcode.BitString{}, grid.None, nil
	}
	e.rs.AttacksSpent++
	if hooks.OnSend != nil {
		hooks.OnSend(slot, attacker, radio.ValueNone, true)
	}
	switch policy {
	case PolicyForge:
		// Try to erase a random 1-bit; detected otherwise. (The guard
		// bit keeps every codeword non-zero, so ones is never empty.)
		ones := e.ones[:0]
		for i := 0; i < cw.Bits.Len(); i++ {
			if cw.Bits.Get(i) == 1 {
				ones = append(ones, i)
			}
		}
		e.ones = ones
		bit := ones[e.rng.Intn(len(ones))]
		sub, _, err := cw.AttackCancelRandom(bit, e.rng)
		if err != nil {
			return auedcode.BitString{}, grid.None, err
		}
		return sub, attacker, nil
	default: // PolicyDisrupt
		// Flip a silent sub-slot of a 0-bit: always detected.
		for i := 0; i < cw.Bits.Len(); i++ {
			if cw.Bits.Get(i) == 0 {
				sub, err := cw.AttackFlipUp(i)
				if err != nil {
					return auedcode.BitString{}, grid.None, err
				}
				return sub, attacker, nil
			}
		}
		// All-ones codeword (cannot happen: count segments contain
		// zeros); attack the first sub-slot anyway.
		sub := cw.Sub.Clone()
		sub.Set(0, 1)
		return sub, attacker, nil
	}
}

// spamNack lets a bad node in the sender's range burn budget on a fake
// NACK, forcing a retransmission.
func (e *reactiveInstance) spamNack(slot int, sender grid.NodeID, hooks *Hooks) bool {
	if e.policy != PolicyNackSpam && e.policy != PolicyMixed {
		return false
	}
	spammer := e.armedNeighbor(sender)
	if spammer == grid.None {
		return false
	}
	if !e.budget[spammer].TrySpend() {
		return false
	}
	e.rs.AttacksSpent++
	if hooks.OnSend != nil {
		hooks.OnSend(slot, spammer, radio.ValueNone, true)
	}
	return true
}

// armedNeighbor returns the first bad neighbor of sender with remaining
// budget in the compiled plan's CSR order, or grid.None.
func (e *reactiveInstance) armedNeighbor(sender grid.NodeID) grid.NodeID {
	if e.env.Bad == nil {
		return grid.None
	}
	for _, nb := range e.env.Plan.Neighbors(sender) {
		if e.env.Bad[nb] && e.budget[nb].Left() != 0 {
			return nb
		}
	}
	return grid.None
}

// payloadFor encodes a protocol value into the k-bit payload.
func (e *reactiveInstance) payloadFor(v radio.Value) auedcode.BitString {
	p := auedcode.NewBitString(e.m.PayloadBits)
	width := e.m.PayloadBits
	if width > 16 {
		width = 16
	}
	p.WriteUint(uint(v), e.m.PayloadBits-width, width)
	return p
}

// valueFor decodes a payload back into a protocol value.
func (e *reactiveInstance) valueFor(p auedcode.BitString) radio.Value {
	width := e.m.PayloadBits
	if width > 16 {
		width = 16
	}
	return radio.Value(p.ReadUint(e.m.PayloadBits-width, width))
}

// Tick implements Instance: the reactive rounds are delivery-driven
// (NACKs are accounted inside the round that provoked them), so no
// time-driven sends exist.
func (e *reactiveInstance) Tick(_ int, buf []Send) []Send { return buf }

// GoodBudget implements Instance: the reactive protocol bounds messages
// by the NACK loop itself, not a static budget.
func (e *reactiveInstance) GoodBudget(grid.NodeID) int { return -1 }

// Threshold implements Instance (the certified-propagation threshold).
func (e *reactiveInstance) Threshold() int { return e.t + 1 }

// Sizing implements Instance: per Theorem 4 a node sends at most
// 2(t·mf+1) messages, padded for the fault-free floor.
func (e *reactiveInstance) Sizing() (sourceSends, maxSends int) {
	return 1, 2*(e.t*e.mf+1) + 16
}

// Finish implements Instance: publish the run record to the machine.
func (e *reactiveInstance) Finish(int) {
	rs := &e.rs
	n := e.env.Plan.Size()
	if e.env.Bad != nil {
		rs.Bad = append([]bool(nil), e.env.Bad...)
	} else {
		rs.Bad = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		id := grid.NodeID(i)
		if rs.Bad[i] || id == e.env.Source {
			continue
		}
		if msgs := int(rs.DataSends[i] + rs.NackSends[i]); msgs > rs.MaxNodeMessages {
			rs.MaxNodeMessages = msgs
		}
	}
	rs.MaxNodeSubSlots = rs.MaxNodeMessages * rs.CodewordBits * rs.SubBitLength
	out := *rs
	out.DataSends = append([]int32(nil), rs.DataSends...)
	out.NackSends = append([]int32(nil), rs.NackSends...)
	e.m.stats = &out
}
