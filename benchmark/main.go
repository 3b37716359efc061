// Command benchmark measures the repository end to end and layer by
// layer on four closed-loop workloads (rgg100k, multi32, grid-job,
// grid-shard). It prints every metric by name and unit, checks the
// workload's outputs, and ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced operations and reports the
// per-layer ones. See README.md for the workloads, the metrics and how
// to run it (normally through run.sh, which builds it first).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"job_s", "s"},
	{"points_per_s", "1/s"},
	{"sim_msgs_per_node", "msgs"},
	{"sim_slots", "slots"},
	{"multi_batch_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics; every workload reports all of
// them with --trace 1, as 0 where the layer does no work.
var perLayer = []metricDef{
	{"topo.build_s", "s"},
	{"plan.compile_s", "s"},
	{"plan.colors", "count"},
	{"adversary.place_s", "s"},
	{"adversary.jams_s", "s"},
	{"adversary.jams_calls", "count"},
	{"adversary.jam_yield", "ratio"},
	{"radio.resolve_s", "s"},
	{"radio.resolve_calls", "count"},
	{"radio.txs", "count"},
	{"radio.deliveries", "count"},
	{"radio.jam_free_frac", "ratio"},
	{"protocol.deliver_s", "s"},
	{"protocol.entries", "count"},
	{"protocol.sends", "count"},
	{"protocol.wasted_frac", "ratio"},
	{"sim.self_s", "s"},
	{"sim.slots_executed", "count"},
	{"sim.slots_skipped", "count"},
	{"pool.seq_run_s", "s"},
	{"pool.par_speedup", "ratio"},
	{"bftbcast.expand_s", "s"},
	{"bftbcast.point_run_s", "s"},
	{"bftbcast.sweep_busy_frac", "ratio"},
	{"jobs.submit_s", "s"},
	{"jobs.queue_s", "s"},
	{"jobs.tail_s", "s"},
	{"jobs.fold_s", "s"},
	{"jobs.aggregate_json_s", "s"},
	{"jobs.open_s", "s"},
	{"jobs.lease_s", "s"},
	{"jobs.range_s", "s"},
	{"jobs.complete_s", "s"},
	{"jobs.leases", "count"},
	{"jobs.out_of_order", "count"},
	{"trace.overhead", "ratio"},
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"rgg100k":    runRGG100k,
	"multi32":    runMulti32,
	"grid-job":   runGridJob,
	"grid-shard": runGridShard,
}

// sizes scales the workloads; toySizes is the self-test's.
type sizes struct {
	rggNodes    int
	multiSide   int
	multiM      int
	gridSeeds   int
	shardSeeds  int
	leasePoints int
	rggSetups   int // set-up repetitions timed for rgg100k's setup_s
	setups      int // set-up repetitions timed for multi32 and the grid workloads
	historyJobs int // untimed jobs left in the checkpoint directory
	minRuns     int // operations run even past the deadline
}

var fullSizes = sizes{
	rggNodes:    100_000,
	multiSide:   75,
	multiM:      32,
	gridSeeds:   128,
	shardSeeds:  256,
	leasePoints: 16,
	rggSetups:   5,
	setups:      25,
	historyJobs: 8,
	minRuns:     3,
}

var toySizes = sizes{
	rggNodes:    3_000,
	multiSide:   15,
	multiM:      4,
	gridSeeds:   2,
	shardSeeds:  8,
	leasePoints: 2,
	rggSetups:   2,
	setups:      2,
	historyJobs: 1,
	minRuns:     2,
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for results, traces and job checkpoints
	size     sizes
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "rgg100k | multi32 | grid-job | grid-shard")
	seed := fs.Uint64("seed", 1, "workload seed: every topology, placement and grid seed derives from it")
	seconds := fs.Float64("seconds", 10, "length of the measured closed loop")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for results, traces and scratch job checkpoints")
	toy := fs.Bool("toy", false, "toy-sized inputs (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown --workload %q (want rgg100k, multi32, grid-job or grid-shard)\n", *workload)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: --seconds must be positive\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: *out, size: fullSizes}
	if *toy {
		cfg.size = toySizes
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	res := b.result()
	b.printReport(stdout, res)
	if err := b.writeFiles(res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one benchmark process: the configuration, the tracer (nil
// when untraced) and everything measured so far.
type bench struct {
	cfg     config
	workers int
	tr      *tracer
	ctx     context.Context
	work    string // scratch directory for job checkpoints

	attempted, failed int
	failures          []string
	invalid           []string // replay fidelity failures

	setupS  []float64
	runS    []float64
	jobS    []float64 // untraced operation wall times
	tracedS []float64 // traced operation wall times
	seqS    []float64 // rgg100k at RunWorkers 1 (pool layer)
	points  int
	busy    time.Duration // summed untraced operation wall time

	// Exact simulation counts over the workload's reference input.
	goodMsgs, totalGood, slots, runs int64
	batched, naive                   int64
}

// execute runs one workload and returns the finished measurements.
func execute(cfg config) (*bench, error) {
	b := &bench{cfg: cfg, workers: runtime.NumCPU()}
	if cfg.trace {
		b.tr = newTracer()
	}
	// Every operation waits on this context, so a hang fails the run
	// in bounded time instead of outliving its caller.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+120*time.Second)
	defer cancel()
	b.ctx = ctx
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b.work = work
	if err := workloads[cfg.workload](b); err != nil {
		b.record(err)
	}
	return b, nil
}

// record counts one checked operation; a non-nil err is a failure.
func (b *bench) record(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// loop runs op as a closed loop with one client for the configured
// seconds: the next operation starts only after the previous returned.
// op reports its wall time and the grid points it completed. Between
// operations, outside their timing, the loop collects garbage, so every
// operation starts from the same heap state; the collections an
// operation triggers itself are still timed. In trace mode untraced and
// traced operations alternate, so trace.overhead compares neighbours in
// time.
//
// The reps set-up repetitions (setup_s) also run between operations,
// spread evenly over the loop, so that a passing disturbance of the
// machine cannot shift all of them at once.
func (b *bench) loop(reps int, setup func(k int) error, op func(i int, traced bool) (time.Duration, int, error)) error {
	start := time.Now()
	length := time.Duration(b.cfg.seconds * float64(time.Second))
	k := 0
	for i := 0; i < b.cfg.size.minRuns || time.Since(start) < length; i++ {
		for ; k < reps && time.Since(start) >= time.Duration(k)*length/time.Duration(reps); k++ {
			if err := setup(k); err != nil {
				return err
			}
		}
		traced := b.tr != nil && i%2 == 1
		runtime.GC()
		d, points, err := op(i, traced)
		b.record(err)
		if err != nil {
			if b.ctx.Err() != nil {
				break
			}
			continue
		}
		if traced {
			b.tracedS = append(b.tracedS, d.Seconds())
		} else {
			b.jobS = append(b.jobS, d.Seconds())
			b.points += points
			b.busy += d
		}
	}
	for ; k < reps; k++ {
		if err := setup(k); err != nil {
			return err
		}
	}
	return nil
}

// timeSetup runs one set-up repetition under a root span and keeps its
// wall time as a setup_s sample.
func (b *bench) timeSetup(k int, fn func(run string) error) error {
	run := fmt.Sprintf("setup/%d", k)
	t0 := time.Now()
	if err := fn(run); err != nil {
		return err
	}
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	return nil
}

// addSim folds one reference report's exact counts.
func (b *bench) addSim(goodMsgs, totalGood, slots int) {
	b.goodMsgs += int64(goodMsgs)
	b.totalGood += int64(totalGood)
	b.slots += int64(slots)
	b.runs++
}

// derive draws a sub-seed for tag and index i from the workload seed.
func (b *bench) derive(tag string, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(tag) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return splitmix(splitmix(b.cfg.seed^h) + uint64(i))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
