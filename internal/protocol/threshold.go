package protocol

import (
	"errors"

	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
)

// Threshold is the Machine executing a static-budget threshold protocol
// described by a core.Spec: protocol B, Bheter, the Koo baseline and the
// full-budget protocol all run through it. It is the seam form of the
// acceptance logic the slot-level engines used to inline.
type Threshold struct {
	Spec core.Spec
}

// NewThreshold wraps a spec as a Machine.
func NewThreshold(spec core.Spec) *Threshold { return &Threshold{Spec: spec} }

// Name implements Machine.
func (m *Threshold) Name() string {
	if m.Spec.Name != "" {
		return m.Spec.Name
	}
	return "threshold"
}

// Attach implements Machine.
func (m *Threshold) Attach(env Env) (Instance, error) {
	inst := NewThresholdInstance()
	if err := inst.Bind(env, m.Spec); err != nil {
		return nil, err
	}
	return inst, nil
}

// ThresholdInstance is the counts-mode Instance over the shared
// Acceptance core. It is exported (with Bind) so the fast engine's
// reusable Runner can keep one across runs: Bind re-arms it for a new
// (env, spec) pair, reusing every allocation when the topology size is
// unchanged — the zero-alloc steady state of sweeps.
type ThresholdInstance struct {
	spec     core.Spec
	bad      []bool
	source   grid.NodeID
	acc      Acceptance
	st       State // Decided/Value alias acc's arrays; Correct/Wrong owned
	n        int
	maxSends int // -1 until computed (see Sizing)
}

// NewThresholdInstance returns an unbound instance; Bind arms it.
func NewThresholdInstance() *ThresholdInstance { return &ThresholdInstance{} }

// Bind validates the spec and re-arms the instance for a new run,
// reusing its arrays when the topology size is unchanged.
func (t *ThresholdInstance) Bind(env Env, spec core.Spec) error {
	if env.Plan == nil {
		return errors.New("protocol: threshold instance needs a plan")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	n := env.Plan.Size()
	if int(env.Source) < 0 || int(env.Source) >= n {
		return errors.New("protocol: source out of range")
	}
	t.spec = spec
	t.bad = env.Bad
	t.source = env.Source
	t.n = n
	t.maxSends = -1
	t.acc.bindCounts(env.Plan.Topo(), env.Source, spec.Threshold)
	t.st.Decided = t.acc.Decided
	t.st.Value = t.acc.Value
	if len(t.st.Correct) != n {
		t.st.Correct = make([]int32, n)
		t.st.Wrong = make([]int32, n)
	} else {
		clear(t.st.Correct)
		clear(t.st.Wrong)
	}
	return nil
}

// Unbind drops the per-run references (the bad mask) so a pooled engine
// does not pin them between runs.
func (t *ThresholdInstance) Unbind() { t.bad = nil }

// State implements Instance.
func (t *ThresholdInstance) State() *State { return &t.st }

// Bootstrap implements Instance: the source repeats SourceRepeats times.
func (t *ThresholdInstance) Bootstrap(buf []Send) []Send {
	return append(buf, Send{ID: t.source, N: t.spec.SourceRepeats})
}

// Deliver implements Instance. The loop body preserves the exact
// per-delivery order the fast engine used before the seam: observer
// event, receipt counters, threshold crossing (Acceptance), relay
// scheduling, decide event — so observer streams and results stay
// bit-identical.
func (t *ThresholdInstance) Deliver(slot int, ds []radio.Delivery, hooks *Hooks, buf []Send) ([]Send, error) {
	st := &t.st
	for _, d := range ds {
		if hooks.OnDeliver != nil {
			hooks.OnDeliver(slot, d)
		}
		u := d.To
		if t.bad != nil && t.bad[u] {
			continue // adversary nodes do not run the protocol
		}
		if d.Value == radio.ValueTrue {
			st.Correct[u]++
		} else {
			st.Wrong[u]++
		}
		if t.acc.deliverCounts(u, d.Value) {
			buf = append(buf, Send{ID: u, N: t.spec.Sends(u)})
			if hooks.OnAccept != nil {
				hooks.OnAccept(slot, u, d.Value)
			}
		}
	}
	return buf, nil
}

// Tick implements Instance (threshold protocols are purely
// delivery-driven).
func (t *ThresholdInstance) Tick(_ int, buf []Send) []Send { return buf }

// GoodBudget implements Instance.
func (t *ThresholdInstance) GoodBudget(id grid.NodeID) int { return t.spec.Budget(id) }

// Threshold implements Instance.
func (t *ThresholdInstance) Threshold() int { return t.spec.Threshold }

// Sizing implements Instance. The max-sends scan is O(n) but runs at
// most once per Bind — and not at all for the built-in specs, which
// carry their maximum as the Spec.MaxSends hint.
func (t *ThresholdInstance) Sizing() (sourceSends, maxSends int) {
	if t.maxSends < 0 {
		if t.spec.MaxSends > 0 {
			t.maxSends = t.spec.MaxSends
		} else {
			m := 0
			for i := 0; i < t.n; i++ {
				if s := t.spec.Sends(grid.NodeID(i)); s > m {
					m = s
				}
			}
			t.maxSends = m
		}
	}
	return t.spec.SourceRepeats, t.maxSends
}

// Finish implements Instance (nothing to publish).
func (t *ThresholdInstance) Finish(int) {}
