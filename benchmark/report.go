package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line: the end-to-end metrics, or the
// per-layer ones in trace mode. Per-layer numbers whose replay did not
// reproduce the run are invalid and are not reported.
func (b *bench) result() result {
	res := result{
		Correct:   b.failed == 0 && len(b.invalid) == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	if b.attempted == 0 {
		// A run that failed before its first checked operation still
		// reports one failed attempt.
		res.Attempted = 1
		res.Failed = 1
	}
	if !res.Correct {
		return res
	}
	defs, values := endToEnd, b.endToEndValues()
	if b.tr != nil {
		defs, values = perLayer, b.layerValues()
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

func (b *bench) endToEndValues() map[string]float64 {
	v := map[string]float64{
		"setup_s":           median(b.setupS),
		"run_s":             median(b.runS),
		"job_s":             median(b.jobS),
		"points_per_s":      ratio(float64(b.points), b.busy.Seconds()),
		"sim_msgs_per_node": ratio(float64(b.goodMsgs), float64(b.totalGood)),
		"sim_slots":         ratio(float64(b.slots), float64(b.runs)),
		"multi_batch_ratio": 1,
		"peak_rss_mb":       peakRSSMB(),
	}
	if b.naive > 0 {
		v["multi_batch_ratio"] = float64(b.batched) / float64(b.naive)
	}
	return v
}

// layerValues folds the traced spans into the per-layer metrics. Each
// is the median over the traced operations (or set-up repetitions) that
// exercised the layer, per operation: one broadcast on rgg100k and
// multi32, one job on the grid workloads.
func (b *bench) layerValues() map[string]float64 {
	samples := map[string][]float64{}
	for _, rt := range b.tr.totalsByRun() {
		for k, v := range rt.metrics(b.workers) {
			samples[k] = append(samples[k], v)
		}
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = median(samples[d.name])
	}
	out["pool.seq_run_s"] = median(b.seqS)
	if len(b.seqS) > 0 && len(b.runS) > 0 {
		out["pool.par_speedup"] = median(b.seqS) / median(b.runS)
	}
	out["trace.overhead"] = ratio(median(b.tracedS), median(b.jobS))
	return out
}

// metrics derives one run's per-layer values from its spans. Keys are
// set only for layers the run exercised.
func (rt *runTotals) metrics(workers int) map[string]float64 {
	m := map[string]float64{}
	secs := func(c callSum) float64 { return float64(c.NS) / 1e9 }
	if d, ok := rt.dur["topo.build"]; ok {
		m["topo.build_s"] = d
	}
	if d, ok := rt.dur["plan.compile"]; ok {
		m["plan.compile_s"] = d
		m["plan.colors"] = float64(rt.counts["plan.colors"])
	}
	validate := rt.calls["adversary.validate"]
	if d, ok := rt.dur["adversary.place"]; ok {
		m["adversary.place_s"] = d + secs(validate)
	}
	if j := rt.calls["adversary.jams"]; j.N > 0 {
		m["adversary.jams_s"] = secs(j)
		m["adversary.jams_calls"] = float64(j.N)
		m["adversary.jam_yield"] = float64(rt.counts["adversary.jams_emitted"]) / float64(j.N)
	}
	resolve := rt.calls["radio.resolve"]
	if resolve.N > 0 {
		m["radio.resolve_s"] = secs(resolve)
		m["radio.resolve_calls"] = float64(resolve.N)
		m["radio.txs"] = float64(rt.counts["radio.txs"])
		m["radio.deliveries"] = float64(rt.counts["radio.deliveries"])
		m["radio.jam_free_frac"] = ratio(float64(rt.counts["radio.jam_free_slots"]), float64(rt.counts["radio.slots"]))
	}
	deliver := rt.calls["protocol.deliver"]
	if deliver.N > 0 {
		m["protocol.deliver_s"] = secs(deliver)
		m["protocol.entries"] = float64(rt.counts["protocol.entries"])
		m["protocol.sends"] = float64(rt.counts["protocol.sends"])
		m["protocol.wasted_frac"] = ratio(float64(rt.counts["protocol.wasted"]), float64(rt.counts["radio.deliveries"]))
	}
	engine, runOK := rt.self["sim.run"]
	point, pointOK := rt.self["bftbcast.point_run"]
	if runOK || pointOK {
		// The engine span's self time still holds the radio and protocol
		// work and the in-run placement check; the replay measured those.
		m["sim.self_s"] = engine + point - secs(resolve) - secs(deliver) - secs(validate)
		m["sim.slots_executed"] = float64(rt.counts["sim.slots_executed"])
		m["sim.slots_skipped"] = float64(rt.counts["sim.slots_skipped"])
	}
	if d, ok := rt.dur["bftbcast.expand"]; ok {
		m["bftbcast.expand_s"] = d
	}
	if pointOK {
		m["bftbcast.point_run_s"] = rt.dur["bftbcast.point_run"]
		m["bftbcast.sweep_busy_frac"] = ratio(rt.dur["bftbcast.point_run"], rt.dur["job"]*float64(workers))
	}
	for _, name := range []string{"submit", "queue", "tail", "fold", "aggregate_json", "open", "lease", "range", "complete"} {
		if d, ok := rt.dur["jobs."+name]; ok {
			m["jobs."+name+"_s"] = d
		}
	}
	if n, ok := rt.counts["jobs.leases"]; ok {
		m["jobs.leases"] = float64(n)
		m["jobs.out_of_order"] = float64(rt.counts["jobs.out_of_order"])
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest of the usual percentiles that has
// at least ten samples beyond it, and its value; ok is false when there
// are too few samples for any.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		beyond := float64(len(s)) * (1 - p/100)
		if beyond >= 10 {
			idx := int(math.Ceil(p/100*float64(len(s)))) - 1
			idx = max(0, min(idx, len(s)-1))
			return p, s[idx], true
		}
	}
	return 0, 0, false
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// machine describes where the numbers were taken.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func machineShape() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown (built outside a git checkout)",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			m.Commit = rev
			if modified == "true" {
				m.Commit += "+modified"
			}
		}
	}
	return m
}

// samplesFor returns the raw samples behind a timing metric, for the
// sample-count and tail-percentile report.
func (b *bench) samplesFor(name string) []float64 {
	switch name {
	case "setup_s":
		return b.setupS
	case "run_s":
		return b.runS
	case "job_s":
		return b.jobS
	case "pool.seq_run_s":
		return b.seqS
	}
	return nil
}

// printReport writes the human-readable lines that precede the JSON.
func (b *bench) printReport(w io.Writer, res result) {
	mode := "end-to-end"
	if b.tr != nil {
		mode = "traced"
	}
	mc := machineShape()
	fmt.Fprintf(w, "benchmark %s seed=%d seconds=%g mode=%s\n", b.cfg.workload, b.cfg.seed, b.cfg.seconds, mode)
	fmt.Fprintf(w, "machine cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", mc.CPU, mc.NProc, mc.GOMAXPROCS, mc.Go, mc.Commit)
	fmt.Fprintf(w, "operations attempted=%d failed=%d fail_frac=%g\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, f := range b.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	for _, f := range b.invalid {
		fmt.Fprintf(w, "INVALID per-layer numbers: replay did not reproduce the run: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-26s %-14.6g %-6s", name, m.Value, m.Unit)
		if s := b.samplesFor(name); len(s) > 0 {
			line += fmt.Sprintf(" median of n=%d", len(s))
			if p, v, ok := tailPercentile(s); ok {
				line += fmt.Sprintf(", p%g=%.6g", p, v)
			} else {
				line += ", no percentile with 10 samples beyond it"
			}
		}
		fmt.Fprintln(w, line)
	}
}

// writeFiles keeps the result with its machine shape, and the spans of
// a traced run, under the output directory.
func (b *bench) writeFiles(res result) error {
	dir := filepath.Join(b.cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", b.cfg.workload, b.cfg.seed, map[bool]int{false: 0, true: 1}[b.tr != nil])
	type sampleInfo struct {
		N         int     `json:"n"`
		Tail      float64 `json:"tail_percentile,omitempty"`
		TailValue float64 `json:"tail_value,omitempty"`
	}
	samples := map[string]sampleInfo{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if s := b.samplesFor(d.name); len(s) > 0 {
			info := sampleInfo{N: len(s)}
			if p, v, ok := tailPercentile(s); ok {
				info.Tail, info.TailValue = p, v
			}
			samples[d.name] = info
		}
	}
	doc := map[string]any{
		"workload": b.cfg.workload,
		"seed":     b.cfg.seed,
		"seconds":  b.cfg.seconds,
		"trace":    b.tr != nil,
		"machine":  machineShape(),
		"result":   res,
		"samples":  samples,
		"failures": b.failures,
		"invalid":  b.invalid,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	tdir := filepath.Join(b.cfg.out, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	return b.tr.writeFile(filepath.Join(tdir, base+".json"))
}
