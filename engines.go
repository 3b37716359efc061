package bftbcast

import (
	"context"
	"fmt"

	"bftbcast/internal/actor"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/sim"
	"bftbcast/internal/sim/ref"
)

// Engine executes a backend-neutral Scenario. Three execution backends
// are provided — EngineFast (the sparse slot-level simulation engine),
// EngineRef (the dense reference engine, verified bit-identical to
// EngineFast by the differential oracle) and EngineActor (the
// goroutine-per-node concurrent runtime, fault-free only) — and each of
// them drives the Scenario's protocol state machine (Scenario.Protocol):
// the threshold family from Spec, or the Section 5 reactive protocol.
type Engine interface {
	// Name identifies the engine ("fast", "ref", "actor").
	Name() string
	// Run executes the scenario. Cancellation is cooperative: every
	// backend checks ctx once per slot and returns ctx.Err() when it
	// fires, honoring deadlines; the actor backend additionally tears
	// down its node goroutines before returning.
	Run(ctx context.Context, sc *Scenario) (*Report, error)
}

// The execution backends.
var (
	// EngineFast is the sparse slot-level simulation engine (the
	// production path; reuses pooled engine state across runs).
	EngineFast Engine = fastEngine{}
	// EngineRef is the dense reference engine: slower, deliberately
	// simple, verified bit-identical to EngineFast.
	EngineRef Engine = refEngine{}
	// EngineActor is the goroutine-per-node concurrent runtime. It is
	// fault-free only and rejects scenarios with an adversary.
	EngineActor Engine = actorEngine{}
)

// Engines returns the execution backends.
func Engines() []Engine {
	return []Engine{EngineFast, EngineRef, EngineActor}
}

// NewEngine resolves a backend by name ("fast", "ref", "actor"); it
// backs the -engine flag of cmd/bftsim.
func NewEngine(name string) (Engine, error) {
	for _, e := range Engines() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("bftbcast: unknown engine %q (want fast, ref or actor)", name)
}

// scenarioMachine resolves the Scenario's protocol selection: nil for
// the default single-broadcast threshold protocol (the engines execute
// Spec through their built-in instance), or a freshly built machine —
// reactive, or the multi-broadcast multiplexer for Broadcasts >= 2.
// Machines are single-run-in-flight, so every Run builds its own.
func scenarioMachine(sc *Scenario) (protocol.Machine, error) {
	if sc.Broadcasts > 1 {
		// validate() already rejected the reactive combination.
		m := &protocol.Multi{Spec: sc.Spec, M: sc.Broadcasts}
		if io, ok := sc.Observer.(InstanceObserver); ok {
			m.OnInstanceDeliver = func(slot, instance int, from, to grid.NodeID, v radio.Value) {
				io.DeliverInstance(slot, instance, from, to, v)
			}
			m.OnInstanceDecide = func(slot, instance int, id grid.NodeID, v radio.Value) {
				io.DecideInstance(slot, instance, id, v)
			}
		}
		return m, nil
	}
	if sc.Protocol != ProtocolReactive {
		return nil, nil
	}
	if sc.Strategy != nil {
		return nil, fmt.Errorf("bftbcast: the reactive protocol drives bad nodes through Reactive.Policy, not a Strategy")
	}
	mmax := sc.Reactive.MMax
	if mmax == 0 {
		mmax = 64
		if sc.Params.MF > mmax {
			mmax = sc.Params.MF
		}
	}
	payload := sc.Reactive.PayloadBits
	if payload == 0 {
		payload = 16
	}
	return &protocol.Reactive{MMax: mmax, PayloadBits: payload, Policy: sc.Reactive.Policy}, nil
}

// finishReport decorates an engine report with the machine's run record
// (a no-op for the default threshold protocol). Every engine funnels its
// report through here so a protocol's Report extension cannot be dropped
// by one backend.
func finishReport(rep *Report, machine protocol.Machine) *Report {
	switch m := machine.(type) {
	case *protocol.Reactive:
		attachReactive(rep, m.TakeStats())
	case *protocol.Multi:
		attachMulti(rep, m.TakeStats())
	}
	return rep
}

// loweredConfig resolves the Scenario's protocol machine and lowers the
// Scenario to the slot-level engines' config in one step.
func loweredConfig(sc *Scenario) (sim.Config, protocol.Machine, error) {
	machine, err := scenarioMachine(sc)
	if err != nil {
		return sim.Config{}, nil, err
	}
	cfg := simConfig(sc)
	if machine != nil {
		cfg.Machine = machine
	}
	return cfg, machine, nil
}

// simConfig lowers a Scenario to the slot-level engines' config,
// including the Observer-to-callback bridge.
func simConfig(sc *Scenario) sim.Config {
	cfg := sim.Config{
		Topo:      sc.Topo,
		Params:    sc.Params,
		Spec:      sc.Spec,
		Source:    sc.Source,
		Placement: sc.Placement,
		Strategy:  sc.Strategy,
		Seed:      sc.Seed,
		MaxSlots:  sc.MaxSlots,
	}
	if obs := sc.Observer; obs != nil {
		cfg.OnSlotStart = obs.SlotStart
		cfg.OnSend = func(slot int, from grid.NodeID, v radio.Value, adversarial bool) {
			obs.Send(slot, from, v, adversarial)
		}
		cfg.OnDeliver = func(slot int, d radio.Delivery) { obs.Deliver(slot, d.From, d.To, d.Value) }
		cfg.OnAccept = func(slot int, id grid.NodeID, v radio.Value) { obs.Decide(slot, id, v) }
	}
	return cfg
}

type fastEngine struct {
	// runner, when non-nil, is a dedicated simulation engine owned by a
	// single goroutine: Sweep pins one per worker so a whole sweep runs
	// allocation-free without sync.Pool churn. The shared EngineFast
	// value has no runner and draws from the pool per Run.
	runner *sim.Runner
}

// Name implements Engine.
func (fastEngine) Name() string { return "fast" }

// Run implements Engine.
func (e fastEngine) Run(ctx context.Context, sc *Scenario) (*Report, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	cfg, machine, err := loweredConfig(sc)
	if err != nil {
		return nil, err
	}
	var res *sim.Result
	if e.runner != nil {
		res, err = e.runner.RunContext(ctx, cfg)
	} else {
		res, err = sim.RunContext(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	return finishReport(reportFromSim("fast", res), machine), nil
}

// pinned implements workerPinned: each sweep worker gets an engine with
// its own reusable Runner (see Sweep.Stream).
func (fastEngine) pinned() Engine { return fastEngine{runner: sim.NewRunner()} }

type refEngine struct{}

// Name implements Engine.
func (refEngine) Name() string { return "ref" }

// Run implements Engine.
func (refEngine) Run(ctx context.Context, sc *Scenario) (*Report, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	cfg, machine, err := loweredConfig(sc)
	if err != nil {
		return nil, err
	}
	res, err := ref.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return finishReport(reportFromSim("ref", res), machine), nil
}

type actorEngine struct{}

// Name implements Engine.
func (actorEngine) Name() string { return "actor" }

// Run implements Engine.
func (actorEngine) Run(ctx context.Context, sc *Scenario) (*Report, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, err
	}
	if sc.Placement != nil || sc.Strategy != nil {
		return nil, fmt.Errorf("bftbcast: the actor engine is fault-free; run adversarial scenarios on the fast or ref engine")
	}
	machine, err := scenarioMachine(sc)
	if err != nil {
		return nil, err
	}
	cfg := actor.Config{
		Topo:     sc.Topo,
		Params:   sc.Params,
		Spec:     sc.Spec,
		Source:   sc.Source,
		Seed:     sc.Seed,
		MaxSlots: sc.MaxSlots,
	}
	if machine != nil {
		cfg.Machine = machine
	}
	if obs := sc.Observer; obs != nil {
		cfg.OnSlotStart = obs.SlotStart
		cfg.OnSend = func(slot int, from grid.NodeID, v radio.Value) { obs.Send(slot, from, v, false) }
		cfg.OnDeliver = func(slot int, d radio.Delivery) { obs.Deliver(slot, d.From, d.To, d.Value) }
		cfg.OnAccept = func(slot int, id grid.NodeID, v radio.Value) { obs.Decide(slot, id, v) }
	}
	res, err := actor.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return finishReport(reportFromActor(res, sc.Source), machine), nil
}
