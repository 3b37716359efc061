// Package sim is the deterministic discrete-event engine that executes a
// broadcast protocol on a topology (the paper's torus, a bounded grid,
// or a random geometric graph — see package topo) against an adversary,
// at time-slot granularity under the collision-free TDMA schedule.
//
// The protocol itself lives behind the internal/protocol seam: each run
// drives a protocol.Instance — the counts-threshold machine built from a
// core.Spec (protocols B, Bheter, Koo, full-budget; the default), or any
// custom Machine such as the Section 5 reactive protocol. Each slot the
// engine: (1) emits the transmissions of the slot's color class (every
// node with pending sends, transmitting its protocol value); (2)
// resolves them into tentative deliveries; (3) asks the adversary
// strategy for jamming transmissions; (4) re-resolves and hands the
// final deliveries to the protocol instance as one batch; (5) schedules
// the sends the instance returns (acceptance relays, retransmissions),
// clamped against per-node budgets. The run ends when no transmissions
// remain pending: either every good node has decided Vtrue (Completed)
// or the broadcast has stalled.
//
// # Fast path
//
// This package is the sparse fast path: per-color active-sender queues
// make each slot cost O(active transmitters) instead of O(nodes in the
// color class), idle slots are skipped in O(1) per period when the
// adversary is delivery-driven, and all engine state lives in a reusable
// Runner so sweeps pay no per-run allocation beyond the Result — the
// Runner keeps one protocol.ThresholdInstance across runs and rebinds it
// per run, so the default protocol path allocates nothing either. The
// original dense engine is preserved verbatim in internal/sim/ref as the
// reference implementation; the differential-testing oracle
// (internal/sim/simtest, wired up in oracle_test.go) asserts bit-identical
// Results between the two over randomized configurations.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sched"
	"bftbcast/internal/topo"
)

// maxTrackedValue bounds the distinct broadcast values the threshold
// protocols track per node; the engine reuses it to validate jam values.
// internal/sim/ref's frozen copy must stay equal for bit-identical
// results.
const maxTrackedValue = protocol.MaxTrackedValue

// Config describes one simulation run.
type Config struct {
	// Topo is the network topology (grid.Torus, topo.Bounded, topo.RGG).
	Topo   topo.Topology
	Params core.Params
	// Spec is the threshold protocol under test, executed through the
	// built-in protocol.ThresholdInstance. Ignored when Machine is set.
	Spec core.Spec
	// Machine, when non-nil, selects a custom protocol state machine
	// (e.g. the Section 5 reactive protocol) instead of the Spec-derived
	// threshold machine. The machine is attached per run.
	Machine protocol.Machine
	// Source is the base station (defaults to node (0,0)).
	Source grid.NodeID
	// Placement chooses the bad set; nil means no bad nodes.
	Placement adversary.Placement
	// Strategy drives the bad nodes; nil means they stay silent.
	Strategy adversary.Strategy
	// Seed drives machine-level randomness (the reactive machine's
	// coding patterns); the threshold machine ignores it.
	Seed uint64
	// MaxSlots caps the run; 0 picks a generous default derived from the
	// protocol sizing and torus size.
	MaxSlots int
	// OnAccept, when non-nil, observes every acceptance.
	OnAccept func(slot int, id grid.NodeID, v radio.Value)
	// OnSlotStart, when non-nil, observes every executed slot before its
	// transmissions are emitted. The fast path skips idle slots wholesale
	// when the strategy is delivery-driven; skipped slots produce no
	// event (the slot counter still advances past them).
	OnSlotStart func(slot int)
	// OnSend, when non-nil, observes every transmission the engine
	// admits: protocol sends by good nodes and (with adversarial=true)
	// validated adversarial jams, plus machine-internal adversarial
	// sends (the reactive machine's payload attacks and NACK spam).
	OnSend func(slot int, from grid.NodeID, v radio.Value, adversarial bool)
	// OnDeliver, when non-nil, observes every delivery the protocol
	// machine surfaces: every final delivery of the radio medium for the
	// threshold protocols (including deliveries to bad nodes, which the
	// protocol layer then ignores), every payload delivery for the
	// reactive machine.
	OnDeliver func(slot int, d radio.Delivery)
}

// Result reports the outcome of a run. All slices are owned by the
// caller: the engine copies its internal state into fresh slices before
// returning, so Results stay valid however the engine is reused.
type Result struct {
	// Completed is true when every good node decided Vtrue.
	Completed bool
	// Stalled is true when transmissions drained with good nodes still
	// undecided: the broadcast failed.
	Stalled bool
	// TimedOut is true when MaxSlots elapsed with work pending.
	TimedOut bool

	Slots          int
	TotalGood      int
	DecidedGood    int
	WrongDecisions int // good nodes that accepted a value != Vtrue (Lemma 1: must be 0)

	GoodMessages int // protocol transmissions, source included
	BadMessages  int // adversarial transmissions
	RejectedJams int // strategy bugs: jams from non-bad or broke nodes

	GoodGoodCollisions int // schedule violations (must be 0)
	BadCount           int

	// Per-node final state, indexed by NodeID.
	Decided      []bool
	DecidedValue []radio.Value
	Correct      []int32 // copies of Vtrue received
	Wrong        []int32 // copies of other values received
	Sent         []int32 // protocol messages sent (good nodes)

	AvgGoodSends float64 // mean Sent over good non-source nodes
	MaxGoodSends int
}

// runnerPool recycles Runners across Run calls, so sweeps that call Run
// in a loop (or from the exper worker pool) reuse engine state instead of
// reallocating it per point.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// Run executes the configured simulation and returns its Result. It
// draws a reusable Runner from an internal pool, so repeated calls on
// same-sized topologies avoid per-run allocation of the engine state.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the engine checks ctx
// once per executed slot and returns ctx.Err() when it fires, honoring
// deadlines. A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := r.RunContext(ctx, cfg)
	runnerPool.Put(r)
	return res, err
}

// Runner is a reusable simulation engine: all per-run state (counters,
// budgets, color queues, scratch buffers) is allocated once and
// reset-and-reused by every Run call, keyed to the configured topology.
// Switching topologies between calls is allowed and re-derives the
// schedule, the radio medium and the flattened adjacency.
//
// A Runner is not safe for concurrent use; create one per goroutine (the
// package-level Run does this through a sync.Pool).
type Runner struct {
	// Per-topology state, rebuilt only when the topology changes. The
	// compiled plan is shared across engines and sweep workers; the
	// medium's scratch is private but its CSR adjacency is the plan's,
	// and it doubles as the engine's neighbor table. colors aliases the
	// plan's (read-only) coloring.
	topo     topo.Topology
	plan     *plan.Plan
	schedule *sched.TDMA
	medium   *radio.Medium
	colors   []int32 // TDMA color per node (shared, read-only)

	// Protocol seam. builtin is the Runner's reusable counts-threshold
	// instance, rebound per run when Config.Machine is nil; custom
	// machines are attached per run. inst/st are the current run's
	// instance and its flat per-node state arrays (see protocol.State) —
	// the engine indexes st directly on the hot paths.
	builtin *protocol.ThresholdInstance
	inst    protocol.Instance
	st      *protocol.State
	hooks   protocol.Hooks

	// Per-run state, reset by Run.
	cfg        Config
	bad        []bool
	sent       []int32
	pending    []int32
	supplies   []bool // node currently contributes to neighbors' supply
	supply     []int32
	goodBudget []radio.Budget
	badBudget  []radio.Budget

	// active[c] queues the nodes of color c with pending transmissions,
	// in activation order with lazy removal; colorPending[c] is the exact
	// total pending over the color class, so empty slots are detected in
	// O(1) and skipped without scanning the class.
	active       [][]grid.NodeID
	colorPending []int64
	pendingTotal int64

	trackSupply bool // supply bookkeeping is only needed by strategies
	curSlot     int

	// Scratch reused across slots.
	txs       []radio.Tx
	tentative []radio.Delivery
	sendBuf   []protocol.Send
	jamSeen   []int32 // epoch stamps replacing validateJams' map
	jamEpoch  int32

	res Result
}

// NewRunner returns an empty Runner; the first Run sizes it.
func NewRunner() *Runner {
	return &Runner{builtin: protocol.NewThresholdInstance()}
}

// resized returns s cleared at length n, reusing its backing array when
// it is big enough — the retarget path's buffer reuse, so a Runner that
// hops between same-or-smaller topologies (a sweep over sizes, a pooled
// Runner serving mixed configs) stops reallocating its per-node state.
func resized[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// retarget (re)builds the per-topology state when cfg.Topo differs from
// the previous run's topology. The topology-derived artifacts (CSR
// adjacency, coloring, schedule) come from the shared compiled plan, so
// only the Runner's private scratch is (re)sized here — and reused when
// the previous topology was at least as big.
func (r *Runner) retarget(t topo.Topology) error {
	p := plan.For(t)
	schedule, err := p.TDMA()
	if err != nil {
		return err
	}
	r.topo = t
	r.plan = p
	r.schedule = schedule
	r.medium = radio.NewMediumShared(p.Adjacency())
	n := t.Size()
	r.colors = p.Colors()

	r.sent = resized(r.sent, n)
	r.pending = resized(r.pending, n)
	r.supplies = resized(r.supplies, n)
	r.supply = resized(r.supply, n)
	r.goodBudget = resized(r.goodBudget, n)
	r.badBudget = resized(r.badBudget, n)
	r.jamSeen = resized(r.jamSeen, n)
	r.jamEpoch = 0
	period := schedule.Period()
	if cap(r.active) >= period {
		r.active = r.active[:period]
		for c := range r.active {
			r.active[c] = r.active[c][:0]
		}
	} else {
		r.active = make([][]grid.NodeID, period)
	}
	r.colorPending = resized(r.colorPending, period)
	r.pendingTotal = 0
	r.res = Result{}
	return nil
}

// reset clears the per-run state for a fresh run on the current topology
// (the protocol instance's state is reset by its own per-run binding).
func (r *Runner) reset() {
	clear(r.sent)
	clear(r.pending)
	clear(r.supplies)
	clear(r.supply)
	clear(r.goodBudget)
	clear(r.badBudget)
	for c := range r.active {
		r.active[c] = r.active[c][:0]
	}
	clear(r.colorPending)
	r.pendingTotal = 0
	r.res = Result{}
	r.medium.ResetStats()
}

// Run executes one simulation, reusing the Runner's allocations.
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation, checked once per
// executed slot. A nil ctx behaves like context.Background().
func (r *Runner) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Topo == nil {
		return nil, errors.New("sim: config needs a topology")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Machine == nil {
		if err := cfg.Spec.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Params.R != cfg.Topo.Range() {
		return nil, fmt.Errorf("sim: params r=%d but topology r=%d", cfg.Params.R, cfg.Topo.Range())
	}
	if r.topo != cfg.Topo {
		if err := r.retarget(cfg.Topo); err != nil {
			return nil, err
		}
	} else {
		r.reset()
	}
	n := cfg.Topo.Size()
	if int(cfg.Source) < 0 || int(cfg.Source) >= n {
		return nil, fmt.Errorf("sim: source %d out of range", cfg.Source)
	}

	placement := cfg.Placement
	if placement == nil {
		placement = adversary.None{}
	}
	bad, err := placement.Place(cfg.Topo, cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("sim: placement %q: %w", placement.Name(), err)
	}
	if _, err := adversary.Validate(cfg.Topo, bad, cfg.Source, cfg.Params.T); err != nil {
		return nil, err
	}

	// Bind the protocol: the reusable built-in threshold instance for
	// Spec runs, a freshly attached machine otherwise.
	env := protocol.Env{
		Plan:   r.plan,
		Params: cfg.Params,
		Source: cfg.Source,
		Bad:    bad,
		Seed:   cfg.Seed,
	}
	if cfg.Machine != nil {
		inst, err := cfg.Machine.Attach(env)
		if err != nil {
			return nil, err
		}
		r.inst = inst
	} else {
		if err := r.builtin.Bind(env, cfg.Spec); err != nil {
			return nil, err
		}
		r.inst = r.builtin
	}
	r.st = r.inst.State()
	r.hooks = protocol.Hooks{
		OnSend:    cfg.OnSend,
		OnDeliver: cfg.OnDeliver,
		OnAccept:  cfg.OnAccept,
	}

	r.cfg = cfg
	r.bad = bad
	r.trackSupply = cfg.Strategy != nil
	for i := 0; i < n; i++ {
		id := grid.NodeID(i)
		if bad[i] {
			r.badBudget[i] = radio.NewBudget(cfg.Params.MF)
			r.res.BadCount++
			continue
		}
		if id == cfg.Source {
			r.goodBudget[i] = radio.Unlimited()
			continue
		}
		r.goodBudget[i] = radio.NewBudget(r.inst.GoodBudget(id))
	}

	// Bootstrap: the instance pre-decides the source and schedules its
	// opening sends.
	r.sendBuf = r.inst.Bootstrap(r.sendBuf[:0])
	r.applySends(r.sendBuf)

	res, err := r.run(ctx)
	// Drop the per-run references so a pooled Runner does not pin the
	// caller's placement, strategy, callbacks or machine between runs.
	r.cfg = Config{}
	r.bad = nil
	r.builtin.Unbind()
	r.inst = nil
	r.st = nil
	r.hooks = protocol.Hooks{}
	return res, err
}

// neighbors returns the flattened neighbor list of id (the medium's CSR
// adjacency, shared read-only).
func (r *Runner) neighbors(id grid.NodeID) []grid.NodeID {
	return r.medium.Neighbors(id)
}

// addPending schedules n more transmissions at id and, when id supplies
// Vtrue, credits the supply estimate of its neighbors.
func (r *Runner) addPending(id grid.NodeID, n int) {
	if n <= 0 {
		return
	}
	c := r.colors[id]
	if r.pending[id] <= 0 {
		r.active[c] = append(r.active[c], id)
	}
	r.pending[id] += int32(n)
	r.colorPending[c] += int64(n)
	r.pendingTotal += int64(n)
	if r.trackSupply && r.st.Value[id] == radio.ValueTrue && !r.bad[id] {
		r.supplies[id] = true
		for _, nb := range r.neighbors(id) {
			r.supply[nb] += int32(n)
		}
	}
}

// applySends schedules the instance's returned sends, clamping each
// against the node's remaining message budget (pre-seam, the clamp lived
// in the engine's accept path; budgets only change in the emission loop,
// so clamping after the batch is equivalent).
func (r *Runner) applySends(sends []protocol.Send) {
	for _, s := range sends {
		n := s.N
		if left := r.goodBudget[s.ID].Left(); left >= 0 && n > left {
			n = left
		}
		r.addPending(s.ID, n)
	}
}

func (r *Runner) defaultMaxSlots() int {
	sourceSends, maxSends := r.inst.Sizing()
	period := r.schedule.Period()
	hops := r.topo.DiameterHint()
	return period * (sourceSends + hops*(maxSends+1) + 2*period)
}

// deliveryDriven reports whether the configured strategy never transmits
// in a slot without tentative deliveries, which lets the engine skip idle
// slots wholesale (see adversary.DeliveryDriven).
func (r *Runner) deliveryDriven() bool {
	if r.cfg.Strategy == nil {
		return true
	}
	dd, ok := r.cfg.Strategy.(adversary.DeliveryDriven)
	return ok && dd.DeliveryDriven()
}

// nextBusySlot returns the first slot >= slot whose color class has
// pending transmissions, or maxSlots when none arrives before the cap.
// Since pendingTotal > 0 implies some color is busy, the scan is bounded
// by one schedule period.
func (r *Runner) nextBusySlot(slot, maxSlots int) int {
	period := r.schedule.Period()
	for d := 0; d < period; d++ {
		s := slot + d
		if s >= maxSlots {
			return maxSlots
		}
		if r.colorPending[r.schedule.SlotColor(s)] > 0 {
			return s
		}
	}
	return maxSlots
}

func (r *Runner) run(ctx context.Context) (*Result, error) {
	maxSlots := r.cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = r.defaultMaxSlots()
	}
	canSkip := r.deliveryDriven()
	view := runnerView{r}
	slot := 0
	for r.pendingTotal > 0 && slot < maxSlots {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		color := r.schedule.SlotColor(slot)
		if r.colorPending[color] == 0 && canSkip {
			// Nothing transmits and the strategy stays silent on empty
			// slots: fast-forward to the next busy color. The slot
			// counter advances exactly as if the idle slots had run.
			slot = r.nextBusySlot(slot+1, maxSlots)
			continue
		}
		r.curSlot = slot
		if r.cfg.OnSlotStart != nil {
			r.cfg.OnSlotStart(slot)
		}

		txs := r.txs[:0]
		if r.colorPending[color] > 0 {
			q := r.active[color]
			w := 0
			for _, id := range q {
				if r.pending[id] <= 0 {
					continue // lazily drop drained entries
				}
				if !r.goodBudget[id].TrySpend() {
					// Budget exhausted below the protocol's send count:
					// drop the remaining pendings (can happen only when
					// a spec sends more than its own budget).
					r.dropPending(id)
					continue
				}
				r.consumePending(id)
				r.sent[id]++
				r.res.GoodMessages++
				if r.cfg.OnSend != nil {
					r.cfg.OnSend(slot, id, r.st.Value[id], false)
				}
				txs = append(txs, radio.Tx{From: id, Value: r.st.Value[id]})
				if r.pending[id] > 0 {
					q[w] = id
					w++
				}
			}
			r.active[color] = q[:w]
		}
		r.txs = txs

		r.tentative = r.tentative[:0]
		if len(txs) > 0 {
			var err error
			if r.tentative, err = r.medium.ResolveAppend(txs, r.tentative); err != nil {
				return nil, err
			}
		}

		var jams []radio.Tx
		if r.cfg.Strategy != nil {
			jams = r.validateJams(r.cfg.Strategy.Jams(view, slot, r.tentative))
		}

		if len(jams) > 0 {
			// Re-resolve with the jams included; ResolveAppend reports
			// the same deliveries in the same ascending-receiver order a
			// callback resolve would.
			r.txs = append(r.txs, jams...)
			r.tentative = r.tentative[:0]
			var err error
			if r.tentative, err = r.medium.ResolveAppend(r.txs, r.tentative); err != nil {
				return nil, err
			}
		}

		// Hand the slot's final deliveries to the protocol as one batch
		// and schedule the sends it returns. Tick is coupled to the
		// non-empty batch so every engine ticks the same slot stream.
		if len(r.tentative) > 0 {
			var err error
			r.sendBuf, err = r.inst.Deliver(slot, r.tentative, &r.hooks, r.sendBuf[:0])
			if err != nil {
				return nil, err
			}
			r.sendBuf = r.inst.Tick(slot, r.sendBuf)
			r.applySends(r.sendBuf)
		}
		slot++
	}

	r.inst.Finish(slot)
	return r.finish(slot, maxSlots), nil
}

// consumePending removes one pending transmission from id, debiting the
// neighbors' supply when id was a Vtrue supplier.
func (r *Runner) consumePending(id grid.NodeID) {
	r.pending[id]--
	r.colorPending[r.colors[id]]--
	r.pendingTotal--
	if r.supplies[id] {
		for _, nb := range r.neighbors(id) {
			r.supply[nb]--
		}
	}
}

// dropPending discards all remaining pendings of id.
func (r *Runner) dropPending(id grid.NodeID) {
	p := r.pending[id]
	if p <= 0 {
		return
	}
	r.pending[id] = 0
	r.colorPending[r.colors[id]] -= int64(p)
	r.pendingTotal -= int64(p)
	if r.supplies[id] {
		for _, nb := range r.neighbors(id) {
			r.supply[nb] -= p
		}
	}
}

// validateJams enforces the adversary rules: jams must come from distinct
// bad nodes with remaining budget, carry a trackable value, and each costs
// one budget unit. Duplicate senders are detected with an epoch-stamped
// array instead of a per-slot map.
func (r *Runner) validateJams(jams []radio.Tx) []radio.Tx {
	if len(jams) == 0 {
		return nil
	}
	r.jamEpoch++
	if r.jamEpoch < 0 {
		r.jamEpoch = 1
		clear(r.jamSeen)
	}
	valid := jams[:0]
	for _, j := range jams {
		switch {
		case int(j.From) < 0 || int(j.From) >= r.topo.Size(),
			!r.bad[j.From],
			r.jamSeen[j.From] == r.jamEpoch,
			!j.Jam,
			!j.Drop && (j.Value <= 0 || j.Value > maxTrackedValue):
			r.res.RejectedJams++
			continue
		}
		if !r.badBudget[j.From].TrySpend() {
			r.res.RejectedJams++
			continue
		}
		r.jamSeen[j.From] = r.jamEpoch
		r.res.BadMessages++
		if r.cfg.OnSend != nil {
			r.cfg.OnSend(r.curSlot, j.From, j.Value, true)
		}
		valid = append(valid, j)
	}
	return valid
}

func (r *Runner) finish(slot, maxSlots int) *Result {
	res := &r.res
	res.Slots = slot
	res.TimedOut = r.pendingTotal > 0 && slot >= maxSlots
	res.GoodGoodCollisions = r.medium.GoodGoodCollisions

	var sumSends, goodNonSource int
	allTrue := true
	for i := 0; i < r.topo.Size(); i++ {
		id := grid.NodeID(i)
		if r.bad[i] {
			continue
		}
		res.TotalGood++
		if r.st.Decided[i] {
			res.DecidedGood++
			if r.st.Value[i] != radio.ValueTrue {
				allTrue = false
				res.WrongDecisions++
			}
		} else {
			allTrue = false
		}
		if id != r.cfg.Source {
			goodNonSource++
			sumSends += int(r.sent[i])
			if int(r.sent[i]) > res.MaxGoodSends {
				res.MaxGoodSends = int(r.sent[i])
			}
		}
	}
	res.Completed = allTrue && res.DecidedGood == res.TotalGood
	res.Stalled = !res.Completed && !res.TimedOut
	if goodNonSource > 0 {
		res.AvgGoodSends = float64(sumSends) / float64(goodNonSource)
	}
	// Copy the per-node state out of the engine: the Runner's own slices
	// are reset and reused by the next run, and handing them out would
	// retroactively corrupt this Result (see TestResultNotAliased).
	res.Decided = append([]bool(nil), r.st.Decided...)
	res.DecidedValue = append([]radio.Value(nil), r.st.Value...)
	res.Correct = append([]int32(nil), r.st.Correct...)
	res.Wrong = append([]int32(nil), r.st.Wrong...)
	res.Sent = append([]int32(nil), r.sent...)
	out := *res
	return &out
}

// runnerView adapts the Runner to adversary.View.
type runnerView struct{ r *Runner }

var (
	_ adversary.View           = runnerView{}
	_ adversary.NeighborSource = runnerView{}
	_ adversary.StateSource    = runnerView{}
)

// Topo implements adversary.View.
func (v runnerView) Topo() topo.Topology { return v.r.topo }

// Neighbors implements adversary.NeighborSource: strategies walk the
// compiled plan's CSR instead of recomputing neighborhoods.
func (v runnerView) Neighbors(id grid.NodeID) []grid.NodeID { return v.r.neighbors(id) }

// BadMask implements adversary.StateSource.
func (v runnerView) BadMask() []bool { return v.r.bad }

// DecidedMask implements adversary.StateSource.
func (v runnerView) DecidedMask() []bool { return v.r.st.Decided }

// CorrectCounts implements adversary.StateSource.
func (v runnerView) CorrectCounts() []int32 { return v.r.st.Correct }

// SupplyCounts implements adversary.StateSource.
func (v runnerView) SupplyCounts() []int32 { return v.r.supply }

// IsBad implements adversary.View.
func (v runnerView) IsBad(id grid.NodeID) bool { return v.r.bad[id] }

// IsDecided implements adversary.View.
func (v runnerView) IsDecided(id grid.NodeID) bool { return v.r.st.Decided[id] }

// CorrectCount implements adversary.View.
func (v runnerView) CorrectCount(id grid.NodeID) int { return int(v.r.st.Correct[id]) }

// Threshold implements adversary.View.
func (v runnerView) Threshold() int { return v.r.inst.Threshold() }

// Supply implements adversary.View.
func (v runnerView) Supply(id grid.NodeID) int { return int(v.r.supply[id]) }

// BadBudgetLeft implements adversary.View.
func (v runnerView) BadBudgetLeft(id grid.NodeID) int {
	if !v.r.bad[id] {
		return 0
	}
	return v.r.badBudget[id].Left()
}
