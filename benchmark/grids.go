package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
	"bftbcast/internal/plan"
)

// gridWorkload is a closed loop of whole-grid jobs on a jobs.Manager.
type gridWorkload struct {
	spec *bftbcast.GridSpec
	// leasePoints > 0 submits with SubmitSharded and drains the job with
	// benchmark-owned lease workers; 0 is the FIFO path.
	leasePoints int
}

// runGridJob: a 512-point threshold grid (15×15 torus, r=2, random
// adversary at density 0.08, T∈{1,2} × MF∈{1,2} × 128 seeds) submitted to
// the FIFO queue of a manager with the bftsimd defaults.
func runGridJob(b *bench) error {
	return b.runGrid(gridWorkload{spec: &bftbcast.GridSpec{
		Base: bftbcast.ScenarioSpec{
			Topology:  bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2},
			T:         1,
			MF:        1,
			Adversary: "random",
			Density:   0.08,
			Seed:      b.derive("grid", 0),
		},
		Seeds: b.cfg.size.gridSeeds,
		T:     []int{1, 2},
		MF:    []int{1, 2},
	}})
}

// runGridShard: a 256-point reactive grid (15×15 torus, r=2, t=1, mf=3,
// disrupt policy, density 0.06) submitted with SubmitSharded and drained
// through 16-point leases by nproc benchmark-owned workers.
func runGridShard(b *bench) error {
	return b.runGrid(gridWorkload{
		spec: &bftbcast.GridSpec{
			Base: bftbcast.ScenarioSpec{
				Topology:  bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2},
				T:         1,
				MF:        3,
				Protocol:  "reactive",
				Policy:    "disrupt",
				Adversary: "random",
				Density:   0.06,
				Seed:      b.derive("grid", 0),
			},
			Seeds: b.cfg.size.shardSeeds,
		},
		leasePoints: b.cfg.size.leasePoints,
	})
}

func (b *bench) runGrid(g gridWorkload) error {
	ref, err := b.referencePass(g.spec)
	if err != nil {
		return err
	}

	// A daemon history: untimed jobs leave terminal checkpoints in a
	// directory of their own. Set-up is a daemon restart, jobs.Open on
	// that directory; the loop's jobs go to another, so the history the
	// restarts read stays the same size.
	history := jobs.Config{Dir: filepath.Join(b.work, "history"), Workers: b.workers}
	hm, err := jobs.Open(history)
	if err != nil {
		return err
	}
	for k := 0; k < b.cfg.size.historyJobs; k++ {
		_, _, err := b.gridOp(g, hm, nil, ref.aggregate, -1-k, false)
		b.record(err)
	}
	if err := b.closeManager(hm); err != nil {
		return err
	}
	restart := func(k int) error {
		return b.timeSetup(k, func(run string) error {
			sp := b.tr.start(run, 0, "jobs.open")
			m, err := jobs.Open(history)
			sp.end()
			if err != nil {
				return err
			}
			return b.closeManager(m)
		})
	}

	m, err := jobs.Open(jobs.Config{Dir: filepath.Join(b.work, "jobs"), Workers: b.workers})
	if err != nil {
		return err
	}
	defer b.closeManager(m)

	// Traced jobs run on a second manager whose engine is the timing
	// wrapper; untraced jobs keep the daemon's default engine.
	var tm *jobs.Manager
	var pe *pointEngine
	if b.tr != nil {
		pe = &pointEngine{tr: b.tr}
		tm, err = jobs.Open(jobs.Config{Dir: filepath.Join(b.work, "traced"), Workers: b.workers, Engine: pe})
		if err != nil {
			return err
		}
		defer b.closeManager(tm)
	}

	// After every untraced job, outside its timing, a slice of the grid's
	// points runs sequentially and timed (run_s), so the per-point samples
	// spread over the whole loop; each must repeat its reference report.
	chunk := max(1, len(ref.reports)/16)
	return b.loop(b.cfg.size.setups, restart, func(i int, traced bool) (time.Duration, int, error) {
		if traced {
			return b.gridOp(g, tm, pe, ref.aggregate, i, true)
		}
		d, n, err := b.gridOp(g, m, nil, ref.aggregate, i, false)
		if err == nil {
			lo := (i * chunk) % len(ref.reports)
			err = b.samplePoints(g.spec, ref, lo, min(lo+chunk, len(ref.reports)))
		}
		return d, n, err
	})
}

func (b *bench) closeManager(m *jobs.Manager) error {
	ctx, cancel := context.WithTimeout(b.ctx, time.Minute)
	defer cancel()
	return m.Close(ctx)
}

// reference is a grid's sequential, unsharded execution.
type reference struct {
	tp        bftbcast.Topology
	reports   []*bftbcast.Report
	aggregate []byte // the reports folded in point order
}

// referencePass runs every point of the grid once, sequentially, through
// EngineFast.Run. It checks each report, feeds the exact simulation
// counts, and folds the reports in point order into the unsharded
// aggregate every job must reproduce byte for byte.
func (b *bench) referencePass(spec *bftbcast.GridSpec) (*reference, error) {
	tp, err := bftbcast.NewTopology(spec.Base.Topology)
	if err != nil {
		return nil, err
	}
	if err := checkSchedule(plan.For(tp)); err != nil {
		return nil, err
	}
	scs, err := spec.ScenariosOn(tp, 0, spec.NPoints())
	if err != nil {
		return nil, err
	}
	ref := &reference{tp: tp}
	agg := jobs.NewAggregate()
	for _, sc := range scs {
		rep, err := bftbcast.EngineFast.Run(b.ctx, sc)
		if err == nil {
			err = checkReport(rep)
		}
		b.record(err)
		if err != nil {
			return nil, err
		}
		b.addSim(rep.GoodMessages, rep.TotalGood, rep.Slots)
		agg.Add(rep)
		ref.reports = append(ref.reports, rep)
	}
	if ref.aggregate, err = json.Marshal(agg); err != nil {
		return nil, err
	}
	return ref, nil
}

// samplePoints re-runs points [lo, hi) sequentially, timing each run
// (run_s) and requiring its reference report.
func (b *bench) samplePoints(spec *bftbcast.GridSpec, ref *reference, lo, hi int) error {
	scs, err := spec.ScenariosOn(ref.tp, lo, hi)
	if err != nil {
		return err
	}
	for k, sc := range scs {
		t0 := time.Now()
		rep, err := bftbcast.EngineFast.Run(b.ctx, sc)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(rep, ref.reports[lo+k]) {
			return fmt.Errorf("point %d: report differs from its reference run", lo+k)
		}
		b.runS = append(b.runS, d.Seconds())
	}
	return nil
}

// gridOp submits the grid once and waits for its aggregate, which must
// equal want. A traced operation also times the job's own topology,
// plan and expansion calls, tails its records, re-folds them, and
// replays every point's radio and protocol layers.
func (b *bench) gridOp(g gridWorkload, m *jobs.Manager, pe *pointEngine, want []byte, i int, traced bool) (time.Duration, int, error) {
	var tr *tracer // nil: untraced
	if traced {
		tr = b.tr
	}
	run := fmt.Sprintf("op/%d", i)
	op := tr.start(run, 0, "op")
	defer op.end()
	n := g.spec.NPoints()
	if traced {
		if err := b.tracePlanning(run, op.id(), g.spec); err != nil {
			return 0, 0, err
		}
	}

	job := tr.start(run, op.id(), "job")
	pe.begin(run, job.id())
	t0 := time.Now()
	sp := tr.start(run, job.id(), "jobs.submit")
	var j *jobs.Job
	var err error
	if g.leasePoints > 0 {
		j, err = m.SubmitSharded(g.spec, jobs.ShardOptions{LeasePoints: g.leasePoints})
	} else {
		j, err = m.Submit(g.spec)
	}
	sp.end()
	if err != nil {
		job.end()
		return 0, 0, err
	}
	var tail *tail
	if traced {
		tail = follow(j, n)
	}
	if g.leasePoints > 0 {
		err = b.drainLeases(j, m, pe, tr, run, job)
	}
	if werr := j.Wait(b.ctx); err == nil {
		err = werr
	}
	waited := time.Now()
	sp = tr.start(run, job.id(), "jobs.aggregate_json")
	got, aerr := j.AggregateJSON()
	sp.end()
	d := time.Since(t0)
	job.end()
	if err == nil {
		err = aerr
	}
	if err == nil && j.Status().State != jobs.StateDone {
		err = fmt.Errorf("job %s ended %s", j.ID(), j.Status().State)
	}
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("job %s: aggregate differs from the unsharded sequential fold", j.ID())
	}
	if err != nil || !traced {
		return d, n, err
	}

	recs, first, last := tail.wait()
	tr.interval(run, job.id(), "jobs.queue", t0, first)
	tr.interval(run, job.id(), "jobs.tail", last, waited)
	sp = tr.start(run, op.id(), "jobs.fold")
	refold := jobs.NewAggregate()
	for _, rec := range recs {
		refold.AddRecord(rec)
	}
	sp.end()
	if len(recs) == n {
		if data, err := json.Marshal(refold); err != nil || !bytes.Equal(data, want) {
			return 0, 0, fmt.Errorf("job %s: re-folding its streamed records does not reproduce the aggregate", j.ID())
		}
	}
	if err := b.replayRuns(run, op.id(), pe.take()); err != nil {
		return 0, 0, err
	}
	return d, n, nil
}

// tracePlanning times, as the benchmark's own calls, the per-job work a
// daemon repeats for every submission: the topology build, the plan
// compile and the grid expansion.
func (b *bench) tracePlanning(run string, parent int, spec *bftbcast.GridSpec) error {
	sp := b.tr.start(run, parent, "topo.build")
	tp, err := bftbcast.NewTopology(spec.Base.Topology)
	sp.end()
	if err != nil {
		return err
	}
	sp = b.tr.start(run, parent, "plan.compile")
	p := plan.Compute(tp)
	sp.count("plan.colors", int64(p.Period()))
	sp.end()
	sp = b.tr.start(run, parent, "bftbcast.expand")
	_, err = spec.ScenariosOn(tp, 0, spec.NPoints())
	sp.end()
	return err
}

// drainLeases runs nproc lease workers against a sharded job until it
// has no open range: each loops Manager.Lease → jobs.RunRange →
// Manager.CompleteLease, the calls a remote bftsimd worker makes minus
// HTTP, decoding the granted spec and building its topology once per
// job as that worker does.
func (b *bench) drainLeases(j *jobs.Job, m *jobs.Manager, pe *pointEngine, tr *tracer, run string, job *active) error {
	var eng bftbcast.Engine = bftbcast.EngineFast
	if pe != nil {
		eng = pe
	}
	var (
		mu     sync.Mutex
		leases int64
		order  rangeOrder
		errs   = make([]error, b.workers)
		wg     sync.WaitGroup
	)
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("bench-%d", w)
			var spec *bftbcast.GridSpec
			var tp bftbcast.Topology
			for {
				sp := tr.start(run, job.id(), "jobs.lease")
				grant, err := m.Lease(j.ID(), name)
				sp.end()
				if errors.Is(err, jobs.ErrNoWork) || errors.Is(err, jobs.ErrJobDone) {
					return
				}
				if err != nil {
					errs[w] = fmt.Errorf("lease: %w", err)
					return
				}
				mu.Lock()
				leases++
				mu.Unlock()
				if spec == nil {
					if spec, err = bftbcast.DecodeGridSpec(grant.Spec); err == nil {
						tp, err = bftbcast.NewTopology(spec.Base.Topology)
					}
					if err != nil {
						errs[w] = err
						return
					}
				}
				sp = tr.start(run, job.id(), "jobs.range")
				recs, err := jobs.RunRange(withSpan(b.ctx, sp.id()), eng, 1, grant.JobID, spec, tp, grant.Lo, grant.Hi, nil)
				sp.end()
				p := jobs.Partial{LeaseID: grant.LeaseID, Worker: name, Lo: grant.Lo, Hi: grant.Hi, Points: recs}
				if err != nil {
					errs[w] = err
					p.Points, p.Err = nil, err.Error()
				}
				mu.Lock()
				order.complete(grant.Lo / b.cfg.size.leasePoints)
				mu.Unlock()
				sp = tr.start(run, job.id(), "jobs.complete")
				cerr := m.CompleteLease(grant.JobID, p)
				sp.end()
				if cerr != nil {
					errs[w] = fmt.Errorf("complete lease: %w", cerr)
					return
				}
				if p.Err != "" {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	job.count("jobs.leases", leases)
	job.count("jobs.out_of_order", order.outOfOrder)
	return errors.Join(errs...)
}

// rangeOrder counts lease completions that arrive ahead of a lower range
// still outstanding — the ones the coordinator's reorder cursor parks.
type rangeOrder struct {
	done       []bool
	next       int
	outOfOrder int64
}

func (o *rangeOrder) complete(idx int) {
	for len(o.done) <= idx {
		o.done = append(o.done, false)
	}
	if idx != o.next {
		o.outOfOrder++
	}
	o.done[idx] = true
	for o.next < len(o.done) && o.done[o.next] {
		o.next++
	}
}

// tail follows a job's live record stream from just after Submit.
type tail struct {
	done        chan struct{}
	recs        []jobs.PointRecord
	first, last time.Time
}

// follow subscribes with room for every point, so no record is shed.
func follow(j *jobs.Job, n int) *tail {
	t := &tail{done: make(chan struct{})}
	sub := j.Subscribe(n)
	go func() {
		defer close(t.done)
		for rec := range sub.Points() {
			now := time.Now()
			if t.first.IsZero() {
				t.first = now
			}
			t.last = now
			t.recs = append(t.recs, rec)
		}
	}()
	return t
}

// wait returns the records once the job has ended the stream.
func (t *tail) wait() ([]jobs.PointRecord, time.Time, time.Time) {
	<-t.done
	return t.recs, t.first, t.last
}

// pointEngine is the traced grid jobs' engine (jobs.Config.Engine, and
// the lease workers' RunRange engine): it runs every point on EngineFast
// with its placement and strategy wrapped and a recorder attached, times
// the run as a bftbcast.point_run span, and keeps the recording for the
// replay after the job. A nil *pointEngine is the untraced no-op.
type pointEngine struct {
	tr *tracer

	mu     sync.Mutex
	run    string
	parent int
	points []*traceRun
}

func (e *pointEngine) Name() string { return bftbcast.EngineFast.Name() }

func (e *pointEngine) Run(ctx context.Context, sc *bftbcast.Scenario) (*bftbcast.Report, error) {
	e.mu.Lock()
	run, parent := e.run, e.parent
	e.mu.Unlock()
	if id, ok := spanFrom(ctx); ok {
		parent = id
	}
	sp := e.tr.start(run, parent, "bftbcast.point_run")
	t, err := instrument(e.tr, run, sp, sc)
	if err != nil {
		sp.end()
		return nil, err
	}
	rep, err := bftbcast.EngineFast.Run(ctx, t.sc)
	if rep != nil {
		sp.count("sim.slots_executed", int64(len(t.rec.slots)))
		sp.count("sim.slots_skipped", int64(rep.Slots-len(t.rec.slots)))
	}
	sp.end()
	t.rep = rep
	if err == nil {
		e.mu.Lock()
		e.points = append(e.points, t)
		e.mu.Unlock()
	}
	return rep, err
}

// begin points the next job's spans at run and parent and drops the
// previous job's recordings.
func (e *pointEngine) begin(run string, parent int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.run, e.parent, e.points = run, parent, nil
	e.mu.Unlock()
}

// take returns the recordings of the job since begin.
func (e *pointEngine) take() []*traceRun {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.points
}
