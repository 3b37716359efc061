package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"bftbcast"
	"bftbcast/internal/grid"
	"bftbcast/internal/plan"
	"bftbcast/internal/topo"
)

// broadcastWorkload is a closed loop of single EngineFast.Run calls on
// one topology built at set-up.
type broadcastWorkload struct {
	build func() (topo.Topology, error)
	// input draws run i's input seed, outside the timed region. When it
	// is nil every run repeats the input of seed fixed, so every report
	// must equal the first; otherwise input 0 is re-run at the end to
	// check that a repeated input repeats its report.
	input func(tp topo.Topology, i int) (uint64, error)
	fixed uint64
	// scenario builds the scenario of an input seed with a fresh
	// strategy (strategies are single-run objects).
	scenario func(tp topo.Topology, seed uint64) (*bftbcast.Scenario, error)
	// seqProbe: traced operations also time the input at RunWorkers 1,
	// the pool layer's sequential baseline.
	seqProbe bool
	setups   int
}

const (
	// rggDensity is rgg100k's target share of bad nodes.
	rggDensity = 0.02
	// rggLayout is the seed of rgg100k's node layout, the graph the
	// repository's BenchmarkRGG100kRun also uses. It does not derive from
	// the workload seed: the connectivity search makes the radius, and
	// with it the degree, diameter, slot count and set-up time, swing by
	// a quarter or more between layouts, which would swamp every timing.
	rggLayout = 7
)

// runRGG100k: one adversarial protocol-B broadcast per operation on a
// 100,000-node connected random geometric graph (r=1, t=1, mf=2,
// corruptor), sharded over nproc run-workers; run i places its bad
// nodes from (seed, i).
func runRGG100k(b *bench) error {
	params := bftbcast.Params{R: 1, T: 1, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		return err
	}
	return b.runBroadcasts(broadcastWorkload{
		build: func() (topo.Topology, error) {
			return topo.NewConnectedRGG(b.cfg.size.rggNodes, rggLayout)
		},
		input: func(tp topo.Topology, i int) (uint64, error) {
			return feasiblePlacement(tp, params.T, b.derive("placement", i))
		},
		scenario: func(tp topo.Topology, seed uint64) (*bftbcast.Scenario, error) {
			placement := bftbcast.RandomPlacement{T: params.T, Density: rggDensity, Seed: seed}
			return bftbcast.NewScenario(
				bftbcast.WithTopology(tp),
				bftbcast.WithParams(params),
				bftbcast.WithSpec(spec),
				bftbcast.WithAdversary(placement, bftbcast.NewCorruptor()),
				bftbcast.WithRunWorkers(b.workers),
			)
		},
		seqProbe: true,
		setups:   b.cfg.size.rggSetups,
	})
}

// feasiblePlacement returns the first placement seed, drawn in turn from
// seed, whose random placement leaves every good node connected to the
// source through good nodes. On a random geometric graph a bad node can
// be the only link of a few good nodes to the rest (a degree-1 node next
// to it, say); no protocol can reach those, so such inputs are not drawn,
// and every drawn input must complete.
func feasiblePlacement(tp topo.Topology, t int, seed uint64) (uint64, error) {
	p := plan.For(tp)
	for k := 0; k < 64; k++ {
		s := splitmix(seed + uint64(k))
		bad, err := bftbcast.RandomPlacement{T: t, Density: rggDensity, Seed: s}.Place(tp, 0)
		if err != nil {
			return 0, err
		}
		if goodConnected(p, bad, 0) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("no placement drawn from seed %d keeps the good nodes connected", seed)
}

// goodConnected reports whether every good node reaches source through
// good nodes.
func goodConnected(p *plan.Plan, bad []bool, source grid.NodeID) bool {
	seen := make([]bool, len(bad))
	seen[source] = true
	queue := []grid.NodeID{source}
	reached := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range p.Neighbors(v) {
			if !seen[u] && !bad[u] {
				seen[u] = true
				reached++
				queue = append(queue, u)
			}
		}
	}
	good := 0
	for _, b := range bad {
		if !b {
			good++
		}
	}
	return reached == good
}

// runMulti32: 32 concurrent fault-free protocol-B broadcasts on a 75×75
// torus (r=2, t=2, mf=2), sequential; the sources derive from the seed.
func runMulti32(b *bench) error {
	params := bftbcast.Params{R: 2, T: 2, MF: 2}
	spec, err := bftbcast.NewProtocolB(params)
	if err != nil {
		return err
	}
	side := b.cfg.size.multiSide
	return b.runBroadcasts(broadcastWorkload{
		build: func() (topo.Topology, error) {
			return topo.New(topo.Spec{Kind: "torus", W: side, H: side, R: params.R})
		},
		fixed: b.derive("sources", 0),
		scenario: func(tp topo.Topology, seed uint64) (*bftbcast.Scenario, error) {
			return bftbcast.NewScenario(
				bftbcast.WithTopology(tp),
				bftbcast.WithParams(params),
				bftbcast.WithSpec(spec),
				bftbcast.WithBroadcasts(b.cfg.size.multiM),
				bftbcast.WithSeed(seed),
			)
		},
		setups: b.cfg.size.setups,
	})
}

// setupTopology times set-up before the loop: the topology build plus
// its plan compile, each repetition from a clean plan cache with the
// previous topology already collected, so one graph is resident at a
// time. It keeps the last topology, whose plan stays cached for the runs.
func (b *bench) setupTopology(build func() (topo.Topology, error), reps int) (topo.Topology, error) {
	var tp topo.Topology
	for k := 0; k < reps; k++ {
		tp = nil
		plan.Purge()
		runtime.GC()
		err := b.timeSetup(k, func(run string) error {
			sp := b.tr.start(run, 0, "topo.build")
			t, err := build()
			sp.end()
			if err != nil {
				return err
			}
			sp = b.tr.start(run, 0, "plan.compile")
			p := plan.For(t)
			sp.count("plan.colors", int64(p.Period()))
			sp.end()
			tp = t
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return tp, checkSchedule(plan.For(tp))
}

// checkSchedule proves the plan's TDMA coloring collision-free: no two
// nodes of any closed neighbourhood share a color, so no receiver can
// hear two good transmitters in one slot (GoodGoodCollisions == 0 for
// every run on this topology, including runs whose Report does not
// expose the counter).
func checkSchedule(p *plan.Plan) error {
	if _, err := p.TDMA(); err != nil {
		return err
	}
	colors := p.Colors()
	seen := make([]int, p.Period())
	for v := 0; v < p.Size(); v++ {
		stamp := v + 1
		seen[colors[v]] = stamp
		for _, u := range p.Neighbors(grid.NodeID(v)) {
			if seen[colors[u]] == stamp {
				return fmt.Errorf("schedule: two nodes near %d share color %d", v, colors[u])
			}
			seen[colors[u]] = stamp
		}
	}
	return nil
}

// checkReport applies the checks every run must pass.
func checkReport(rep *bftbcast.Report) error {
	switch {
	case !rep.Completed || rep.Stalled || rep.TimedOut:
		return fmt.Errorf("run did not complete (stalled=%v timed_out=%v, %d/%d good nodes decided)",
			rep.Stalled, rep.TimedOut, rep.DecidedGood, rep.TotalGood)
	case rep.WrongDecisions != 0:
		return fmt.Errorf("%d wrong decisions (Lemma 1 requires 0)", rep.WrongDecisions)
	case rep.Sim != nil && rep.Sim.GoodGoodCollisions != 0:
		return fmt.Errorf("%d good-good collisions", rep.Sim.GoodGoodCollisions)
	case rep.Sim != nil && rep.Sim.RejectedJams != 0:
		return fmt.Errorf("%d rejected jams", rep.Sim.RejectedJams)
	case rep.Multi != nil && rep.Multi.BatchedSends >= rep.Multi.NaiveSends:
		return fmt.Errorf("no batching win: %d batched vs %d naive sends", rep.Multi.BatchedSends, rep.Multi.NaiveSends)
	}
	return nil
}

func (b *bench) runBroadcasts(w broadcastWorkload) error {
	tp, err := b.setupTopology(w.build, w.setups)
	if err != nil {
		return err
	}
	seedOf := func(i int) (uint64, error) {
		if w.input == nil {
			return w.fixed, nil
		}
		return w.input(tp, i)
	}
	runInput := func(i int) (*bftbcast.Report, error) {
		seed, err := seedOf(i)
		if err != nil {
			return nil, err
		}
		sc, err := w.scenario(tp, seed)
		if err != nil {
			return nil, err
		}
		rep, err := bftbcast.EngineFast.Run(b.ctx, sc)
		if err != nil {
			return nil, err
		}
		return rep, checkReport(rep)
	}
	// The reference run of input 0 warms the engine and carries the
	// exact simulation counts.
	ref, err := runInput(0)
	b.record(err)
	if err != nil {
		return nil
	}
	b.addSim(ref.GoodMessages, ref.TotalGood, ref.Slots)
	if ref.Multi != nil {
		b.batched, b.naive = int64(ref.Multi.BatchedSends), int64(ref.Multi.NaiveSends)
	}

	err = b.loop(0, nil, func(i int, traced bool) (time.Duration, int, error) {
		seed, err := seedOf(i + 1)
		if err != nil {
			return 0, 0, err
		}
		if traced {
			return b.tracedBroadcast(w, tp, seed, i, ref)
		}
		t0 := time.Now()
		sc, err := w.scenario(tp, seed)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		rep, err := bftbcast.EngineFast.Run(b.ctx, sc)
		end := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if err := checkReport(rep); err != nil {
			return 0, 0, err
		}
		if w.input == nil && !reflect.DeepEqual(rep, ref) {
			return 0, 0, fmt.Errorf("run %d: report differs from the first run of the same input", i)
		}
		b.runS = append(b.runS, end.Sub(t1).Seconds())
		return end.Sub(t0), 1, nil
	})
	if err != nil {
		return err
	}

	if w.input != nil {
		again, err := runInput(0)
		if err == nil && !reflect.DeepEqual(again, ref) {
			err = fmt.Errorf("input 0 re-run: report differs from its first run")
		}
		b.record(err)
	}
	return nil
}

// tracedBroadcast is one traced operation: the run with its placement
// and strategy wrapped and a recorder attached, then the placement check
// and the radio/protocol replay, then (rgg100k) the sequential probe.
func (b *bench) tracedBroadcast(w broadcastWorkload, tp topo.Topology, seed uint64, i int, ref *bftbcast.Report) (time.Duration, int, error) {
	run := fmt.Sprintf("op/%d", i)
	op := b.tr.start(run, 0, "op")
	defer op.end()
	t0 := time.Now()
	sc, err := w.scenario(tp, seed)
	if err != nil {
		return 0, 0, err
	}
	rs := b.tr.start(run, op.id(), "sim.run")
	t, err := instrument(b.tr, run, rs, sc)
	if err != nil {
		rs.end()
		return 0, 0, err
	}
	rep, err := bftbcast.EngineFast.Run(b.ctx, t.sc)
	d := time.Since(t0)
	if err != nil {
		rs.end()
		return 0, 0, err
	}
	rs.count("sim.slots_executed", int64(len(t.rec.slots)))
	rs.count("sim.slots_skipped", int64(rep.Slots-len(t.rec.slots)))
	rs.end()
	t.rep = rep
	if err := checkReport(rep); err != nil {
		return 0, 0, err
	}
	if w.input == nil && !reflect.DeepEqual(rep, ref) {
		return 0, 0, fmt.Errorf("traced run %d: report differs from the untraced run of the same input", i)
	}
	if err := b.replayRuns(run, op.id(), []*traceRun{t}); err != nil {
		return 0, 0, err
	}
	if w.seqProbe {
		seq, err := w.scenario(tp, seed)
		if err == nil {
			seq, err = seq.With(bftbcast.WithRunWorkers(1))
		}
		if err != nil {
			return 0, 0, err
		}
		ps := b.tr.start(run, op.id(), "pool.seq_run")
		t1 := time.Now()
		srep, err := bftbcast.EngineFast.Run(b.ctx, seq)
		b.seqS = append(b.seqS, time.Since(t1).Seconds())
		ps.end()
		if err != nil {
			return 0, 0, err
		}
		if !reflect.DeepEqual(srep, rep) {
			return 0, 0, fmt.Errorf("run %d: RunWorkers=1 report differs from RunWorkers=%d", i, b.workers)
		}
	}
	return d, 1, nil
}

// replayRuns checks each traced run's placement and replays its radio
// and protocol layers under one replay span. A replay that does not
// reproduce its run makes the per-layer numbers invalid; a replayed
// good-good collision is a correctness failure.
func (b *bench) replayRuns(run string, parent int, runs []*traceRun) error {
	sp := b.tr.start(run, parent, "replay")
	defer sp.end()
	for _, t := range runs {
		if err := t.validate(sp); err != nil {
			return err
		}
		if !t.replayable {
			continue
		}
		ggc, err := t.replay(sp)
		if err != nil {
			if len(b.invalid) < 20 {
				b.invalid = append(b.invalid, fmt.Sprintf("%s: %v", run, err))
			}
			continue
		}
		if ggc != 0 {
			return fmt.Errorf("%s: replayed medium saw %d good-good collisions", run, ggc)
		}
	}
	return nil
}
