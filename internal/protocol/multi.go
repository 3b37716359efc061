package protocol

import (
	"errors"
	"fmt"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/stats"
)

// Multi is the multi-broadcast traffic machine: M concurrent instances
// of one counts-threshold protocol (distinct source nodes, staggered
// start slots) multiplexed over a single TDMA slot stream. It is the
// repo's workload model for "many users broadcast at once" (the
// multi-broadcast schemes of Levin/Kowalski/Segal motivate the metric):
// each instance runs the unmodified threshold acceptance rule, and the
// machine batches transmissions — one physical send by a node carries
// its current entry for every instance that still owes a relay — so the
// message-efficiency win over M sequential runs is measurable
// (BatchedSends vs NaiveSends in MultiStats).
//
// Batching semantics. Per instance j and node u, relayRemaining[j][u]
// is the number of future transmissions by u that still carry u's
// instance-j entry; an acceptance (or a source release) sets it to the
// protocol's send count. physOutstanding[u] tracks the physical
// transmissions already scheduled at the engine but not yet observed,
// so an acceptance only schedules the difference — overlapping
// instances share the same physical sends. A transmission by u is
// observed through its first radio delivery of the slot (one
// transmission per sender per slot; half-duplex keeps a transmitting
// node from accepting in the same slot, so the batch popped for a
// sender is slot-deterministic regardless of delivery order). A
// transmission whose every delivery is silenced (ValueNone jam at all
// neighbors) is never observed: the entries it would have carried stay
// owed and physOutstanding stays high, deterministically and
// identically on every engine.
//
// The engine transmits one value per node (State.Value); the receiver
// applies the sender's per-instance accepted values from its own
// relayRemaining bookkeeping, so the aggregate on-air value is a
// display/adversary-view summary: ValueTrue once any instance accepted,
// sticky on the first wrong acceptance. Adversarial deliveries (bad
// From) cannot be attributed to an instance and are counted once in
// every started instance — the strongest consistent reading of a
// forged copy.
//
// With M = 1 the machine is bit-identical to ThresholdInstance: every
// batch has exactly one entry (a node's observed transmissions never
// exceed its scheduled sends), physOutstanding is zero at a node's
// only acceptance, and the per-delivery event order matches — the
// facade's regression pins this.
//
// Like Reactive, a Multi value is single-run-in-flight: the run record
// hands off through the machine (Finish → TakeStats), so concurrent
// runs must each attach their own machine value.
type Multi struct {
	// Spec is the threshold protocol every instance runs.
	Spec core.Spec
	// M is the number of concurrent broadcast instances (>= 1).
	M int

	// OnInstanceDeliver, when non-nil, observes each protocol-level
	// entry applied at a good receiver: batched entries of a good
	// sender's transmission, or a forged copy counted in every started
	// instance. Fired after the raw OnDeliver hook.
	OnInstanceDeliver func(slot, instance int, from, to grid.NodeID, v radio.Value)
	// OnInstanceDecide, when non-nil, observes each per-instance
	// acceptance (fired alongside the aggregate OnAccept hook).
	OnInstanceDecide func(slot, instance int, id grid.NodeID, v radio.Value)

	// stats is the last finished instance's run record (see TakeStats).
	stats *MultiStats
}

// MultiInstanceStats is one broadcast instance's outcome inside a
// multi-broadcast run.
type MultiInstanceStats struct {
	// Source is the instance's source node (instance 0 uses the
	// scenario source; the rest are drawn from the seed).
	Source grid.NodeID
	// StartSlot is the planned staggered start (instance 0 starts at 0).
	StartSlot int
	// ReleaseSlot is the slot the instance actually started in, -1 if
	// the run drained before its start slot ticked.
	ReleaseSlot int
	// DecidedGood counts good nodes decided in this instance
	// (including the pre-decided source).
	DecidedGood int
	// WrongDecisions counts good nodes that accepted a value other
	// than ValueTrue in this instance.
	WrongDecisions int
	// DoneSlot is the slot the instance's last good node decided in,
	// -1 if the instance did not complete.
	DoneSlot int
	// Completed reports whether every good node decided in this
	// instance.
	Completed bool
}

// MultiStats is the run record a multi instance publishes at Finish,
// backing the facade's MultiResult extension.
type MultiStats struct {
	// M is the instance count.
	M int
	// Instances holds the per-instance outcomes, indexed by instance.
	Instances []MultiInstanceStats
	// BatchedSends is the number of physical good-node transmissions
	// the machine scheduled (batched: one send carries one entry per
	// owing instance).
	BatchedSends int
	// NaiveSends is the number of transmissions M independent
	// single-instance runs of the same schedule would have scheduled
	// (the sum of per-acceptance send counts plus source repeats).
	NaiveSends int
	// EntriesCarried is the total number of instance entries carried by
	// observed transmissions (> BatchedSends exactly when batching won).
	EntriesCarried int
	// Decisions counts good-node acceptances across all instances
	// (excluding pre-decided sources); Decisions/Slots is the run's
	// aggregate decision throughput.
	Decisions int
}

// Name implements Machine.
func (m *Multi) Name() string {
	base := m.Spec.Name
	if base == "" {
		base = "threshold"
	}
	return fmt.Sprintf("multi(%s x%d)", base, m.M)
}

// TakeStats returns (and clears) the run record published by the last
// instance that Finished. Engines call Finish before returning their
// result, so a successful Run is always followed by a non-nil
// TakeStats.
func (m *Multi) TakeStats() *MultiStats {
	s := m.stats
	m.stats = nil
	return s
}

// multiSeedSalt decorrelates the machine's source/stagger draws from
// the engine-side users of the same scenario seed (adversary placement,
// strategies).
const multiSeedSalt = 0x6d756c7469626373 // "multibcs"

// Attach implements Machine.
func (m *Multi) Attach(env Env) (Instance, error) {
	if env.Plan == nil {
		return nil, errors.New("protocol: multi machine needs a plan")
	}
	if err := m.Spec.Validate(); err != nil {
		return nil, err
	}
	if m.M < 1 {
		return nil, fmt.Errorf("protocol: multi machine needs M >= 1, got %d", m.M)
	}
	n := env.Plan.Size()
	if int(env.Source) < 0 || int(env.Source) >= n {
		return nil, errors.New("protocol: source out of range")
	}
	period := env.Plan.Period()
	if period <= 0 {
		return nil, errors.New("protocol: multi machine needs a compiled TDMA schedule")
	}
	good := n
	if env.Bad != nil {
		good = 0
		for _, b := range env.Bad {
			if !b {
				good++
			}
		}
	}
	if m.M > good {
		return nil, fmt.Errorf("protocol: %d broadcast instances need %d distinct good sources, topology has %d",
			m.M, m.M, good)
	}
	if env.bad(env.Source) {
		return nil, errors.New("protocol: multi machine needs a good scenario source")
	}

	mi := &multiInstance{
		machine:   m,
		spec:      m.Spec,
		m:         m.M,
		n:         n,
		bad:       env.Bad,
		goodTotal: good,
		threshold: int32(m.Spec.Threshold),
	}
	mi.st.Decided = make([]bool, n)
	mi.st.Value = make([]radio.Value, n)
	mi.st.Correct = make([]int32, n)
	mi.st.Wrong = make([]int32, n)

	stride := m.M * n
	mi.counts = make([]int32, stride*(MaxTrackedValue+1))
	mi.decided = make([]bool, stride)
	mi.value = make([]radio.Value, stride)
	mi.relayRemaining = make([]int32, stride)

	mi.decidedCount = make([]int32, n)
	mi.hasWrong = make([]bool, n)
	mi.physOutstanding = make([]int32, n)
	mi.isSource = make([]bool, n)
	mi.batchStamp = make([]int, n)
	for i := range mi.batchStamp {
		mi.batchStamp[i] = -1
	}
	mi.batchSpan = make([][2]int32, n)

	// Draw the instance sources (distinct good nodes; instance 0 is the
	// scenario source) and the staggered start slots (within one TDMA
	// period, instance 0 at 0) deterministically from the scenario seed.
	rng := stats.NewRNG(env.Seed ^ multiSeedSalt)
	mi.inst = make([]MultiInstanceStats, m.M)
	mi.inst[0] = MultiInstanceStats{Source: env.Source, StartSlot: 0, ReleaseSlot: -1, DoneSlot: -1}
	mi.isSource[env.Source] = true
	for j := 1; j < m.M; j++ {
		src := grid.None
		for attempt := 0; attempt < 16*n; attempt++ {
			cand := grid.NodeID(rng.Intn(n))
			if !env.bad(cand) && !mi.isSource[cand] {
				src = cand
				break
			}
		}
		if src == grid.None {
			// Rejection sampling stalled (dense adversary); fall back to
			// the first unused good node — still seed-deterministic.
			for i := 0; i < n; i++ {
				if !env.bad(grid.NodeID(i)) && !mi.isSource[grid.NodeID(i)] {
					src = grid.NodeID(i)
					break
				}
			}
		}
		mi.isSource[src] = true
		mi.inst[j] = MultiInstanceStats{Source: src, StartSlot: 0, ReleaseSlot: -1, DoneSlot: -1}
	}
	for j := 1; j < m.M; j++ {
		mi.inst[j].StartSlot = rng.Intn(period)
	}
	return mi, nil
}

// multiInstance is one multi-broadcast run's state. Per-instance arrays
// are flat, sized M·n and laid out receiver-major (indexed u·m+j): node
// u's M instance slots are one contiguous row, so the per-delivery
// batch application walks one cache-friendly row per endpoint. The
// aggregate State arrays are the engine-facing summary (Decided = all M
// instances decided, Value = the on-air value, Correct/Wrong =
// protocol-level entry counts).
type multiInstance struct {
	machine   *Multi
	spec      core.Spec
	m, n      int
	bad       []bool
	goodTotal int
	threshold int32

	st State

	counts         []int32       // [(u*m+j)*(MaxTrackedValue+1) + tracked]
	decided        []bool        // [u*m+j]
	value          []radio.Value // [u*m+j] accepted value
	relayRemaining []int32       // [u*m+j] entries u still owes instance j

	decidedCount    []int32 // per node: instances decided
	hasWrong        []bool  // per node: some instance accepted a wrong value
	physOutstanding []int32 // per node: scheduled, not-yet-observed physical sends
	isSource        []bool  // per node: is an instance source

	// Per-slot transmission observation: batchStamp[u] is the last slot
	// u's transmission was popped in (-1 initially), batchSpan[u] its
	// entry window into batchArena. The arena is reset per Deliver call
	// (pops only live within one slot's batch).
	batchStamp []int
	batchSpan  [][2]int32
	batchArena []int32

	inst     []MultiInstanceStats
	released int // instances released so far

	batchedSends   int
	naiveSends     int
	entriesCarried int
	decisions      int

	maxSends int // cached Sizing scan; 0 until computed
}

// State implements Instance.
func (mi *multiInstance) State() *State { return &mi.st }

// Bootstrap implements Instance: release every instance whose start
// slot is 0 (always including instance 0).
func (mi *multiInstance) Bootstrap(buf []Send) []Send {
	return mi.releaseDue(0, buf)
}

// Tick implements Instance: release instances whose staggered start
// slot has arrived. Ticks fire only on delivering slots; the source's
// repeated bootstrap sends keep the first TDMA period busy, so every
// start slot inside it is reached while the run is live (a start slot
// the run drains before stays unreleased and is reported with
// ReleaseSlot -1).
func (mi *multiInstance) Tick(slot int, buf []Send) []Send {
	if mi.released < mi.m {
		buf = mi.releaseDue(slot, buf)
	}
	return buf
}

// releaseDue starts every not-yet-released instance with
// StartSlot <= slot, in instance order.
func (mi *multiInstance) releaseDue(slot int, buf []Send) []Send {
	for j := 0; j < mi.m; j++ {
		if mi.inst[j].ReleaseSlot < 0 && mi.inst[j].StartSlot <= slot {
			buf = mi.release(j, slot, buf)
		}
	}
	return buf
}

// release pre-decides instance j's source on ValueTrue (no acceptance
// event, mirroring the single-broadcast bootstrap) and schedules its
// opening repeats through the shared physical-send pool.
func (mi *multiInstance) release(j, slot int, buf []Send) []Send {
	mi.inst[j].ReleaseSlot = slot
	mi.released++
	src := mi.inst[j].Source
	idx := int(src)*mi.m + j
	mi.decided[idx] = true
	mi.value[idx] = radio.ValueTrue
	mi.noteDecided(j, src, radio.ValueTrue, slot)
	repeats := mi.spec.SourceRepeats
	mi.naiveSends += repeats
	mi.relayRemaining[idx] = int32(repeats)
	return mi.schedule(src, repeats, buf)
}

// schedule requests enough physical transmissions at u to cover `want`
// further entry carries, reusing sends already outstanding, and counts
// the new ones as BatchedSends.
func (mi *multiInstance) schedule(u grid.NodeID, want int, buf []Send) []Send {
	need := want - int(mi.physOutstanding[u])
	if need <= 0 {
		return buf
	}
	mi.physOutstanding[u] += int32(need)
	mi.batchedSends += need
	return append(buf, Send{ID: u, N: need})
}

// noteDecided updates the per-node and per-instance aggregates for a
// decided (j, u) pair: the all-instances Decided mask, the sticky
// on-air Value, and the instance's completion bookkeeping.
func (mi *multiInstance) noteDecided(j int, u grid.NodeID, v radio.Value, slot int) {
	mi.decidedCount[u]++
	if int(mi.decidedCount[u]) == mi.m {
		mi.st.Decided[u] = true
	}
	if v != radio.ValueTrue {
		if !mi.hasWrong[u] {
			mi.hasWrong[u] = true
			mi.st.Value[u] = v
		}
		mi.inst[j].WrongDecisions++
	} else if !mi.hasWrong[u] && mi.st.Value[u] == radio.ValueNone {
		mi.st.Value[u] = radio.ValueTrue
	}
	mi.inst[j].DecidedGood++
	if mi.inst[j].DecidedGood == mi.goodTotal {
		mi.inst[j].DoneSlot = slot
		mi.inst[j].Completed = true
	}
}

// Deliver implements Instance. Each raw delivery fires the engine's
// OnDeliver hook first (preserving the single-broadcast event stream);
// a good sender's first delivery of the slot pops its transmission
// batch (the instances it still owes entries, decremented once per
// transmission — before the bad-receiver skip, since the transmission
// happened regardless of who heard it); then the batch entries (or the
// forged copy, once per started instance) run the per-instance
// threshold rule at the receiver.
func (mi *multiInstance) Deliver(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error) {
	mi.batchArena = mi.batchArena[:0]
	for _, d := range ds {
		if hooks.OnDeliver != nil {
			hooks.OnDeliver(slot, d)
		}
		u := d.To
		w := d.From
		if mi.bad != nil && mi.bad[w] {
			// Forged/jammed copy: not attributable to an instance, so it
			// counts once in every started instance at the receiver.
			if mi.bad[u] {
				continue // adversary nodes do not run the protocol
			}
			for j := 0; j < mi.m; j++ {
				if mi.inst[j].ReleaseSlot < 0 {
					continue
				}
				buf = mi.applyEntry(slot, j, w, u, d.Value, hooks, buf)
			}
			continue
		}
		span := mi.senderBatch(slot, w)
		if mi.bad != nil && mi.bad[u] {
			continue // adversary nodes do not run the protocol
		}
		row := int(w) * mi.m
		for _, j32 := range mi.batchArena[span[0]:span[1]] {
			j := int(j32)
			buf = mi.applyEntry(slot, j, w, u, mi.value[row+j], hooks, buf)
		}
	}
	return buf, nil
}

// senderBatch observes w's transmission on its first delivery of the
// slot: pop one owed entry from every instance with relayRemaining
// left, and consume one outstanding physical send. Later deliveries of
// the same transmission reuse the popped span. The popped set is
// slot-deterministic: w transmits at most once per slot and, being
// half-duplex, cannot accept (and so cannot change its owed entries)
// in a slot it transmits in.
func (mi *multiInstance) senderBatch(slot int, w grid.NodeID) [2]int32 {
	if mi.batchStamp[w] == slot {
		return mi.batchSpan[w]
	}
	mi.batchStamp[w] = slot
	start := int32(len(mi.batchArena))
	row := int(w) * mi.m
	for j := 0; j < mi.m; j++ {
		if mi.relayRemaining[row+j] > 0 {
			mi.relayRemaining[row+j]--
			mi.batchArena = append(mi.batchArena, int32(j))
		}
	}
	span := [2]int32{start, int32(len(mi.batchArena))}
	mi.batchSpan[w] = span
	mi.entriesCarried += int(span[1] - span[0])
	if mi.physOutstanding[w] > 0 {
		mi.physOutstanding[w]--
	}
	return span
}

// applyEntry runs the counts-threshold rule for one instance-j entry of
// value v delivered from `from` to good node u: the instance-tagged
// deliver hook, receipt counters, the (receiver,instance,value) count
// and, on a threshold crossing, the decided/value row, relay
// bookkeeping, physical-send scheduling, the run-global counters, the
// per-instance aggregates and the accept hooks.
func (mi *multiInstance) applyEntry(slot, j int, from, u grid.NodeID, v radio.Value, hooks *Hooks, buf []Send) []Send {
	if mi.machine.OnInstanceDeliver != nil {
		mi.machine.OnInstanceDeliver(slot, j, from, u, v)
	}
	if v == radio.ValueTrue {
		mi.st.Correct[u]++
	} else {
		mi.st.Wrong[u]++
	}
	tracked := v
	if tracked < 0 || tracked > MaxTrackedValue {
		tracked = MaxTrackedValue // clamp exotic values into the last bucket
	}
	idx := int(u)*mi.m + j
	ci := idx*(MaxTrackedValue+1) + int(tracked)
	mi.counts[ci]++
	if mi.decided[idx] || mi.counts[ci] != mi.threshold {
		return buf
	}
	mi.decided[idx] = true
	mi.value[idx] = v
	sends := mi.spec.Sends(u)
	mi.relayRemaining[idx] += int32(sends)
	buf = mi.schedule(u, int(mi.relayRemaining[idx]), buf)
	mi.decisions++
	mi.naiveSends += sends
	mi.noteDecided(j, u, v, slot)
	if hooks.OnAccept != nil {
		hooks.OnAccept(slot, u, v)
	}
	if mi.machine.OnInstanceDecide != nil {
		mi.machine.OnInstanceDecide(slot, j, u, v)
	}
	return buf
}

// GoodBudget implements Instance: instance sources are unlimited (the
// engine already leaves the scenario source unlimited; secondary
// sources get the same treatment), every other node carries M times its
// single-instance budget.
func (mi *multiInstance) GoodBudget(id grid.NodeID) int {
	if mi.isSource[id] {
		return -1
	}
	b := mi.spec.Budget(id)
	if b < 0 {
		return b
	}
	return mi.m * b
}

// Threshold implements Instance.
func (mi *multiInstance) Threshold() int { return mi.spec.Threshold }

// Sizing implements Instance: a node's physical sends are bounded by M
// non-overlapping acceptances, so the horizon scales the
// single-instance maximum by M (the first-period staggers are absorbed
// by the horizon's slack terms). With M = 1 this is exactly the
// threshold instance's sizing.
func (mi *multiInstance) Sizing() (sourceSends, maxSends int) {
	if mi.maxSends == 0 {
		if mi.spec.MaxSends > 0 {
			mi.maxSends = mi.spec.MaxSends
		} else {
			for i := 0; i < mi.n; i++ {
				if s := mi.spec.Sends(grid.NodeID(i)); s > mi.maxSends {
					mi.maxSends = s
				}
			}
		}
	}
	return mi.spec.SourceRepeats, mi.m * mi.maxSends
}

// Finish implements Instance: publish the run record to the machine.
func (mi *multiInstance) Finish(slots int) {
	out := make([]MultiInstanceStats, mi.m)
	copy(out, mi.inst)
	mi.machine.stats = &MultiStats{
		M:              mi.m,
		Instances:      out,
		BatchedSends:   mi.batchedSends,
		NaiveSends:     mi.naiveSends,
		EntriesCarried: mi.entriesCarried,
		Decisions:      mi.decisions,
	}
}
