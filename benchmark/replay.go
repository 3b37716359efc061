package main

import (
	"errors"
	"fmt"
	"time"

	"bftbcast"
	"bftbcast/internal/adversary"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
	"bftbcast/internal/topo"
)

// slotRec is one executed slot of a recorded run: index ranges into the
// recorder's flat transmission arrays, plus digests of the tentative
// deliveries the strategy saw and of the final deliveries the protocol
// surfaced.
type slotRec struct {
	slot         int
	txLo, txHi   int // good transmissions, in emission order
	advLo, advHi int // admitted adversarial transmissions (Observer)
	jamLo, jamHi int // the strategy's returned jams (with Drop flags)

	strategyCalled bool
	tentDigest     uint64
	tentN          int

	digest     uint64
	deliveries int
}

// recorder is the traced run's Observer. It keeps every executed slot's
// transmissions and a digest of its deliveries, which is all the replay
// needs: the replayed radio output is checked against the digests and
// then drives the replayed protocol.
type recorder struct {
	slots []slotRec
	txs   []radio.Tx
	adv   []radio.Tx
	jams  []radio.Tx
	err   error
}

var _ bftbcast.Observer = (*recorder)(nil)

func (r *recorder) cur(slot int) *slotRec {
	if len(r.slots) == 0 || r.slots[len(r.slots)-1].slot != slot {
		if r.err == nil {
			r.err = fmt.Errorf("event for slot %d outside its SlotStart", slot)
		}
		r.SlotStart(slot)
	}
	return &r.slots[len(r.slots)-1]
}

// SlotStart implements bftbcast.Observer.
func (r *recorder) SlotStart(slot int) {
	r.slots = append(r.slots, slotRec{
		slot: slot,
		txLo: len(r.txs), txHi: len(r.txs),
		advLo: len(r.adv), advHi: len(r.adv),
		jamLo: len(r.jams), jamHi: len(r.jams),
		digest: digestSeed,
	})
}

// Send implements bftbcast.Observer.
func (r *recorder) Send(slot int, from bftbcast.NodeID, v bftbcast.Value, adversarial bool) {
	s := r.cur(slot)
	if adversarial {
		r.adv = append(r.adv, radio.Tx{From: from, Value: v, Jam: true})
		s.advHi = len(r.adv)
		return
	}
	r.txs = append(r.txs, radio.Tx{From: from, Value: v})
	s.txHi = len(r.txs)
}

// Deliver implements bftbcast.Observer.
func (r *recorder) Deliver(slot int, from, to bftbcast.NodeID, v bftbcast.Value) {
	s := r.cur(slot)
	s.digest = mix(s.digest, to, v, from)
	s.deliveries++
}

// Decide implements bftbcast.Observer.
func (r *recorder) Decide(int, bftbcast.NodeID, bftbcast.Value) {}

// strategyCall records what the strategy saw and returned in slot.
func (r *recorder) strategyCall(slot int, tentative []radio.Delivery, jams []radio.Tx) {
	s := r.cur(slot)
	s.strategyCalled = true
	s.tentDigest, s.tentN = digest(tentative), len(tentative)
	r.jams = append(r.jams, jams...)
	s.jamHi = len(r.jams)
}

const digestSeed uint64 = 14695981039346656037

// mix folds one delivery into an FNV-1a style digest.
func mix(h uint64, to grid.NodeID, v radio.Value, from grid.NodeID) uint64 {
	for _, x := range [3]uint64{uint64(uint32(to)), uint64(uint32(v)), uint64(uint32(from))} {
		h ^= x
		h *= 1099511628211
	}
	return h
}

func digest(ds []radio.Delivery) uint64 {
	h := digestSeed
	for _, d := range ds {
		h = mix(h, d.To, d.Value, d.From)
	}
	return h
}

// timedStrategy forwards an adversary.Strategy, summing the time of
// every Jams call into the run's span and, when rec is set, recording
// the slot's jams for the replay. It forwards DeliveryDriven, so the
// engine keeps skipping idle slots exactly as with the bare strategy.
type timedStrategy struct {
	inner adversary.Strategy
	span  *active
	rec   *recorder
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) DeliveryDriven() bool {
	dd, ok := s.inner.(adversary.DeliveryDriven)
	return ok && dd.DeliveryDriven()
}

func (s *timedStrategy) Jams(v adversary.View, slot int, tentative []radio.Delivery) []radio.Tx {
	t0 := time.Now()
	jams := s.inner.Jams(v, slot, tentative)
	s.span.call("adversary.jams", time.Since(t0))
	s.span.count("adversary.jams_emitted", int64(len(jams)))
	if s.rec != nil {
		s.rec.strategyCall(slot, tentative, jams)
	}
	return jams
}

// timedPlacement forwards an adversary.Placement, timing Place as a
// child span of the run and keeping the mask for the replay.
type timedPlacement struct {
	inner  adversary.Placement
	tr     *tracer
	run    string
	parent int
	mask   []bool
}

func (p *timedPlacement) Name() string { return p.inner.Name() }

func (p *timedPlacement) Place(t topo.Topology, source grid.NodeID) ([]bool, error) {
	sp := p.tr.start(p.run, p.parent, "adversary.place")
	mask, err := p.inner.Place(t, source)
	sp.end()
	p.mask = mask
	return mask, err
}

// traceRun is one traced broadcast: the scenario as submitted, the
// wrappers that observed it and the report it produced.
type traceRun struct {
	sc    *bftbcast.Scenario
	place *timedPlacement
	rec   *recorder
	rep   *bftbcast.Report
	// replayable is false for the reactive machine: it surfaces payload
	// deliveries, not radio deliveries, so its Observer stream cannot
	// drive a radio/protocol replay.
	replayable bool
}

// instrument returns sc with its placement and strategy wrapped and a
// recorder attached; the strategy's Jams calls are summed into span.
func instrument(tr *tracer, run string, span *active, sc *bftbcast.Scenario) (*traceRun, error) {
	t := &traceRun{rec: &recorder{}, replayable: sc.Protocol != bftbcast.ProtocolReactive}
	opts := []bftbcast.ScenarioOption{bftbcast.WithObserver(t.rec)}
	if sc.Placement != nil {
		t.place = &timedPlacement{inner: sc.Placement, tr: tr, run: run, parent: span.id()}
		opts = append(opts, bftbcast.WithPlacement(t.place))
	}
	if sc.Strategy != nil {
		opts = append(opts, bftbcast.WithStrategy(&timedStrategy{inner: sc.Strategy, span: span, rec: t.rec}))
	}
	out, err := sc.With(opts...)
	if err != nil {
		return nil, err
	}
	t.sc = out
	return t, nil
}

// validate times adversary.Validate on the recorded placement — the
// check the engine runs right after Place.
func (t *traceRun) validate(sp *active) error {
	if t.place == nil || t.place.mask == nil {
		return nil
	}
	t0 := time.Now()
	_, err := adversary.Validate(t.sc.Topo, t.place.mask, t.sc.Source, t.sc.Params.T)
	sp.call("adversary.validate", time.Since(t0))
	return err
}

// replay re-executes the recorded run's radio and protocol layers slot
// by slot, in the engine's order: the good transmissions through a
// fresh radio.Medium (again with the jams on jam slots), then the final
// deliveries through a freshly bound protocol instance (Deliver + Tick).
// Every call is timed into sp. A returned error means the replay did
// not reproduce the run — the recorded deliveries, the strategy's view
// or the report's per-node decisions — so its numbers are not valid;
// ggc is the replayed medium's good-good collision count.
func (t *traceRun) replay(sp *active) (ggc int, err error) {
	rec, sc, rep := t.rec, t.sc, t.rep
	if !t.replayable {
		return 0, errors.New("the reactive machine's Observer stream cannot drive a radio replay")
	}
	if rec.err != nil {
		return 0, rec.err
	}
	var bad []bool
	if t.place != nil {
		bad = t.place.mask
	}
	p := plan.For(sc.Topo)
	med := radio.NewMediumShared(p.Adjacency())
	env := protocol.Env{Plan: p, Params: sc.Params, Source: sc.Source, Bad: bad, Seed: sc.Seed}
	var inst protocol.Instance
	var multi *protocol.Multi
	if sc.Broadcasts > 1 {
		multi = &protocol.Multi{Spec: sc.Spec, M: sc.Broadcasts}
		if inst, err = multi.Attach(env); err != nil {
			return 0, err
		}
	} else {
		ti := protocol.NewThresholdInstance()
		if err := ti.Bind(env, sc.Spec); err != nil {
			return 0, err
		}
		inst = ti
	}
	st := inst.State()

	var hooks protocol.Hooks
	var sends []protocol.Send
	countSends := func() {
		for _, s := range sends {
			sp.count("protocol.sends", int64(s.N))
		}
	}
	sends = inst.Bootstrap(sends)
	countSends()

	var txs []radio.Tx
	var ds []radio.Delivery
	for i := range rec.slots {
		s := &rec.slots[i]
		txs = append(txs[:0], rec.txs[s.txLo:s.txHi]...)
		ds = ds[:0]
		if len(txs) > 0 {
			t0 := time.Now()
			ds, err = med.ResolveAppend(txs, ds)
			sp.call("radio.resolve", time.Since(t0))
			if err != nil {
				return 0, err
			}
		}
		if s.strategyCalled && (len(ds) != s.tentN || digest(ds) != s.tentDigest) {
			return 0, fmt.Errorf("slot %d: replayed tentative deliveries differ from the strategy's view", s.slot)
		}
		jams := rec.jams[s.jamLo:s.jamHi]
		adv := rec.adv[s.advLo:s.advHi]
		if len(jams) != len(adv) {
			return 0, fmt.Errorf("slot %d: the engine admitted %d of %d jams", s.slot, len(adv), len(jams))
		}
		for k := range jams {
			if jams[k].From != adv[k].From || jams[k].Value != adv[k].Value {
				return 0, fmt.Errorf("slot %d: admitted jam %d differs from the strategy's", s.slot, k)
			}
		}
		if len(jams) > 0 {
			txs = append(txs, jams...)
			t0 := time.Now()
			ds, err = med.ResolveAppend(txs, ds[:0])
			sp.call("radio.resolve", time.Since(t0))
			if err != nil {
				return 0, err
			}
		} else if len(txs) > 0 {
			sp.count("radio.jam_free_slots", 1)
		}
		if len(txs) > 0 {
			sp.count("radio.slots", 1)
		}
		sp.count("radio.txs", int64(len(txs)))
		sp.count("radio.deliveries", int64(len(ds)))
		if len(ds) != s.deliveries || digest(ds) != s.digest {
			return 0, fmt.Errorf("slot %d: replayed deliveries differ from the recorded ones (%d vs %d)", s.slot, len(ds), s.deliveries)
		}
		if len(ds) == 0 {
			continue
		}
		var wasted int64
		for _, d := range ds {
			if (bad != nil && bad[d.To]) || st.Decided[d.To] {
				wasted++
			}
		}
		sp.count("protocol.wasted", wasted)
		t0 := time.Now()
		sends, err = inst.Deliver(s.slot, ds, &hooks, sends[:0])
		if err == nil {
			sends = inst.Tick(s.slot, sends)
		}
		sp.call("protocol.deliver", time.Since(t0))
		if err != nil {
			return 0, err
		}
		countSends()
	}
	inst.Finish(rep.Slots)

	if len(st.Decided) != len(rep.Decided) {
		return 0, fmt.Errorf("replayed protocol has %d nodes, report %d", len(st.Decided), len(rep.Decided))
	}
	for id := range st.Decided {
		if st.Decided[id] != rep.Decided[id] || st.Value[id] != rep.DecidedValue[id] {
			return 0, fmt.Errorf("node %d: replayed decision (%v, %d) differs from the report's (%v, %d)",
				id, st.Decided[id], st.Value[id], rep.Decided[id], rep.DecidedValue[id])
		}
	}
	if multi != nil {
		ms := multi.TakeStats()
		if ms == nil || rep.Multi == nil || ms.BatchedSends != rep.Multi.BatchedSends ||
			ms.NaiveSends != rep.Multi.NaiveSends || ms.EntriesCarried != rep.Multi.EntriesCarried {
			return 0, errors.New("replayed multi-broadcast stats differ from the report's")
		}
		sp.count("protocol.entries", int64(ms.EntriesCarried))
	} else {
		sp.count("protocol.entries", int64(len(rec.txs)))
	}
	return med.GoodGoodCollisions, nil
}
