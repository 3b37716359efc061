// Command benchjson converts `go test -bench` output into a compact
// machine-readable JSON document, used by scripts/bench_sim.sh and the
// CI bench job to track the simulation engines' performance trajectory
// (BENCH_sim.json: ns/op for the dense reference engine vs the sparse
// fast path, plus the large-scale tier) across PRs.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSweep' -benchmem . | \
//	  benchjson -prev BENCH_sim.json -max-regress BenchmarkSweep45Scenario:1.10 > BENCH_new.json
//
// When both BenchmarkSweep45Sequential and BenchmarkSweep45DenseRef are
// present, the document includes their ratio as "dense_over_sparse" —
// the fast engine's single-core speedup over the frozen baseline.
//
// With -prev, every benchmark present in both runs gains a
// "<name>_vs_prev" speedup entry (previous ns/op over current ns/op;
// above 1 is faster). With -max-regress the command exits non-zero —
// after writing the document — when a guarded benchmark regressed past
// its factor against -prev, which is how the CI bench job fails pull
// requests on >10% regressions. -max-regress takes a comma-separated
// list of gates; each is name:factor (guarding ns/op) or
// name:allocs:factor (guarding allocs/op, the hot-path allocation
// budget, e.g. BenchmarkBVDeliver:allocs:1.10).
//
// Repeated lines of one benchmark (go test -count N) fold into one
// entry: ns/op, B/op and allocs/op become the medians of the samples,
// and the entry records the sample count and the min/max of ns/op and
// allocs/op as the spread. Gates compare medians, so one noisy sample
// cannot trip them.
//
// The document records the machine shape: the CPU model and "procs",
// the GOMAXPROCS value from the benchmark names' -N suffix (1 when
// there is none). ns/op gates only fire when both match the -prev
// snapshot; allocation gates always fire.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Entry is one benchmark result: a single sample, or the medians of
// Samples repeats with their spread.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Samples counts the folded repeats (omitted for a single sample);
	// the ranges below span them.
	Samples   int     `json:"samples,omitempty"`
	NsMin     float64 `json:"ns_min,omitempty"`
	NsMax     float64 `json:"ns_max,omitempty"`
	AllocsMin int64   `json:"allocs_min,omitempty"`
	AllocsMax int64   `json:"allocs_max,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	CPU        string             `json:"cpu,omitempty"`
	Procs      int                `json:"procs,omitempty"`
	GoOS       string             `json:"goos,omitempty"`
	GoArch     string             `json:"goarch,omitempty"`
	Benchmarks []Entry            `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

func main() {
	prevPath := flag.String("prev", "", "previous BENCH_sim.json to compute *_vs_prev speedups against")
	maxRegress := flag.String("max-regress", "", "comma-separated gates name:factor (ns/op) or name:allocs:factor (allocs/op) — fail when a guarded benchmark regressed past factor × its -prev value")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, os.Stderr, *prevPath, *maxRegress); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// run converts the bench output on in to the JSON document on out and
// enforces the -max-regress gates; advisory warnings (skipped gates) go
// to errw, injected so the warning paths stay testable.
func run(in io.Reader, out, errw io.Writer, prevPath, maxRegress string) error {
	doc := Doc{Speedups: map[string]float64{}}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		e, procs, ok := parseLine(line)
		if !ok {
			continue
		}
		if doc.Procs == 0 {
			doc.Procs = procs
		}
		doc.Benchmarks = append(doc.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	doc.Benchmarks = fold(doc.Benchmarks)
	if dense, sparse := find(doc.Benchmarks, "BenchmarkSweep45DenseRef"), find(doc.Benchmarks, "BenchmarkSweep45Sequential"); dense != nil && sparse != nil && sparse.NsPerOp > 0 {
		doc.Speedups["dense_over_sparse"] = round2(dense.NsPerOp / sparse.NsPerOp)
	}

	var prev *Doc
	if prevPath != "" {
		data, err := os.ReadFile(prevPath)
		if err != nil {
			return fmt.Errorf("-prev: %w", err)
		}
		prev = &Doc{}
		if err := json.Unmarshal(data, prev); err != nil {
			return fmt.Errorf("-prev %s: %w", prevPath, err)
		}
		for i := range doc.Benchmarks {
			cur := &doc.Benchmarks[i]
			if p := find(prev.Benchmarks, cur.Name); p != nil && cur.NsPerOp > 0 {
				doc.Speedups[cur.Name+"_vs_prev"] = round2(p.NsPerOp / cur.NsPerOp)
			}
		}
	}
	if len(doc.Speedups) == 0 {
		doc.Speedups = nil
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}

	if maxRegress != "" {
		if prev == nil {
			return fmt.Errorf("-max-regress needs -prev")
		}
		// ns/op only compare meaningfully on the machine shape that
		// produced the snapshot: cross-machine deltas dwarf any real
		// regression, so the timing gates are skipped (loudly) when the
		// CPU model or the GOMAXPROCS count differs (a snapshot without
		// either matches anything) and the *_vs_prev entries are left as
		// advisory. Allocation gates are machine-independent and always
		// enforced.
		sameMachine := true
		if prev.CPU != "" && doc.CPU != prev.CPU {
			fmt.Fprintf(errw, "benchjson: ns/op gates skipped: cpu %q differs from snapshot %q\n", doc.CPU, prev.CPU)
			sameMachine = false
		}
		if prev.Procs != 0 && doc.Procs != prev.Procs {
			fmt.Fprintf(errw, "benchjson: ns/op gates skipped: procs %d differs from snapshot %d\n", doc.Procs, prev.Procs)
			sameMachine = false
		}
		for _, gate := range strings.Split(maxRegress, ",") {
			if err := checkGate(strings.TrimSpace(gate), &doc, prev, sameMachine, errw); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkGate enforces one -max-regress entry: name:factor (ns/op) or
// name:allocs:factor (allocs/op).
func checkGate(gate string, doc, prev *Doc, sameMachine bool, errw io.Writer) error {
	parts := strings.Split(gate, ":")
	var (
		name, metric string
		factorStr    string
	)
	switch len(parts) {
	case 2:
		name, metric, factorStr = parts[0], "ns", parts[1]
	case 3:
		name, metric, factorStr = parts[0], parts[1], parts[2]
	default:
		return fmt.Errorf("-max-regress wants name:factor or name:allocs:factor, got %q", gate)
	}
	factor, err := strconv.ParseFloat(factorStr, 64)
	if err != nil || factor <= 0 {
		return fmt.Errorf("-max-regress factor %q", factorStr)
	}
	cur, old := find(doc.Benchmarks, name), find(prev.Benchmarks, name)
	if cur == nil {
		return fmt.Errorf("-max-regress: %s missing from current run", name)
	}
	if old == nil {
		// A benchmark newly added to the suite has no previous value to
		// gate against; it joins the snapshot now and gates next time.
		fmt.Fprintf(errw, "benchjson: gate skipped: %s missing from prev\n", name)
		return nil
	}
	switch metric {
	case "ns":
		if !sameMachine {
			return nil
		}
		if cur.NsPerOp > old.NsPerOp*factor {
			return fmt.Errorf("regression: %s %.1fms/op vs previous %.1fms/op (limit %.0f%%)",
				name, cur.NsPerOp/1e6, old.NsPerOp/1e6, (factor-1)*100)
		}
	case "allocs":
		// +1 absolute headroom keeps a tiny baseline (a handful of
		// allocations) from failing on one amortized slice growth.
		if float64(cur.AllocsPerOp) > float64(old.AllocsPerOp)*factor+1 {
			return fmt.Errorf("regression: %s %d allocs/op vs previous %d (limit %.0f%%)",
				name, cur.AllocsPerOp, old.AllocsPerOp, (factor-1)*100)
		}
	default:
		return fmt.Errorf("-max-regress metric %q (want ns or allocs)", metric)
	}
	return nil
}

// parseLine parses "BenchmarkX-8  10  123 ns/op  456 B/op  7 allocs/op",
// returning the entry and the GOMAXPROCS suffix (1 when absent).
func parseLine(line string) (Entry, int, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Entry{}, 0, false
	}
	name, procs := f[0], 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the GOMAXPROCS suffix so entries compare by name; the
		// count itself is recorded in Doc.Procs.
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return Entry{}, 0, false
	}
	e := Entry{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		}
	}
	return e, procs, true
}

// fold merges the samples of each benchmark name into one entry at the
// name's first position, keeping single samples as they are. Iterations
// sums over the samples; an even sample count takes the mean of the two
// middle values (truncated for the integer metrics).
func fold(es []Entry) []Entry {
	byName := map[string][]Entry{}
	var order []string
	for _, e := range es {
		if _, seen := byName[e.Name]; !seen {
			order = append(order, e.Name)
		}
		byName[e.Name] = append(byName[e.Name], e)
	}
	out := make([]Entry, 0, len(order))
	for _, name := range order {
		samples := byName[name]
		if len(samples) == 1 {
			out = append(out, samples[0])
			continue
		}
		f := Entry{Name: name, Samples: len(samples)}
		ns := make([]float64, len(samples))
		bytes := make([]int64, len(samples))
		allocs := make([]int64, len(samples))
		for i, s := range samples {
			f.Iterations += s.Iterations
			ns[i], bytes[i], allocs[i] = s.NsPerOp, s.BytesPerOp, s.AllocsPerOp
		}
		f.NsPerOp = median(ns)
		f.BytesPerOp = median(bytes)
		f.AllocsPerOp = median(allocs)
		f.NsMin, f.NsMax = ns[0], ns[len(ns)-1]
		f.AllocsMin, f.AllocsMax = allocs[0], allocs[len(allocs)-1]
		out = append(out, f)
	}
	return out
}

// median sorts xs in place and returns its median.
func median[T int64 | float64](xs []T) T {
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func find(es []Entry, name string) *Entry {
	for i := range es {
		if es[i].Name == name {
			return &es[i]
		}
	}
	return nil
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
