package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOut is a minimal but realistic `go test -bench -benchmem` capture:
// the two sweep variants (so dense_over_sparse is computed), a guarded
// hot path, and a sub-benchmark whose name carries a slash — the shape
// BenchmarkShardedGridThroughput/executors=1 has in bench_sim.sh's gates.
const benchOut = `goos: linux
goarch: amd64
cpu: Testing CPU @ 2.00GHz
BenchmarkSweep45Sequential-8   	      10	 100000000 ns/op
BenchmarkSweep45DenseRef-8     	       2	 400000000 ns/op
BenchmarkBVDeliver-8           	    5000	    300000 ns/op	  120000 B/op	      15 allocs/op
BenchmarkShardedGridThroughput/executors=1-8 	      20	  60000000 ns/op	 5000000 B/op	     388 allocs/op
PASS
`

// writePrev marshals a Doc to a temp file and returns its path.
func writePrev(t *testing.T, doc Doc) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prev.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEmitsDocAndSpeedups(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(strings.NewReader(benchOut), &out, &errw, "", ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc Doc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	if doc.CPU != "Testing CPU @ 2.00GHz" || doc.Procs != 8 || doc.GoOS != "linux" || doc.GoArch != "amd64" {
		t.Fatalf("header fields: %+v", doc)
	}
	if got := doc.Speedups["dense_over_sparse"]; got != 4 {
		t.Fatalf("dense_over_sparse = %v, want 4", got)
	}
	// Sub-benchmark names keep their slash; only the -N GOMAXPROCS
	// suffix is stripped. The gates in bench_sim.sh rely on this.
	e := find(doc.Benchmarks, "BenchmarkShardedGridThroughput/executors=1")
	if e == nil {
		t.Fatalf("sub-benchmark name not preserved; have %+v", doc.Benchmarks)
	}
	if e.AllocsPerOp != 388 {
		t.Fatalf("allocs/op = %d, want 388", e.AllocsPerOp)
	}
	if errw.Len() != 0 {
		t.Fatalf("unexpected warnings: %s", errw.String())
	}
}

// A gated benchmark that is present in the current run but absent from
// the -prev snapshot must not fail the run: it has no previous value to
// compare against (first appearance — it joins the snapshot now and
// gates next time). The skip must be loud on stderr, not silent.
func TestGateSkippedOnFirstAppearance(t *testing.T) {
	prev := writePrev(t, Doc{
		CPU: "Testing CPU @ 2.00GHz",
		Benchmarks: []Entry{
			{Name: "BenchmarkBVDeliver", NsPerOp: 300000, AllocsPerOp: 15},
		},
	})
	var out, errw bytes.Buffer
	err := run(strings.NewReader(benchOut), &out, &errw, prev,
		"BenchmarkBVDeliver:allocs:1.10,BenchmarkShardedGridThroughput/executors=1:allocs:1.10")
	if err != nil {
		t.Fatalf("first-appearance gate must not fail the run: %v", err)
	}
	want := "benchjson: gate skipped: BenchmarkShardedGridThroughput/executors=1 missing from prev\n"
	if errw.String() != want {
		t.Fatalf("stderr = %q, want %q", errw.String(), want)
	}
}

func TestGateTripsOnAllocRegression(t *testing.T) {
	prev := writePrev(t, Doc{
		CPU: "Testing CPU @ 2.00GHz",
		Benchmarks: []Entry{
			// 15 current vs 10 previous: over 1.10×10+1 = 12.
			{Name: "BenchmarkBVDeliver", NsPerOp: 300000, AllocsPerOp: 10},
		},
	})
	var out, errw bytes.Buffer
	err := run(strings.NewReader(benchOut), &out, &errw, prev, "BenchmarkBVDeliver:allocs:1.10")
	if err == nil || !strings.Contains(err.Error(), "regression: BenchmarkBVDeliver") {
		t.Fatalf("want alloc regression error, got %v", err)
	}
	// The document must still have been written before the gate fired
	// (CI uploads it even on failure).
	if !json.Valid(out.Bytes()) {
		t.Fatalf("document not written before gate error")
	}
}

func TestGateTripsOnNsRegression(t *testing.T) {
	prev := writePrev(t, Doc{
		CPU: "Testing CPU @ 2.00GHz",
		Benchmarks: []Entry{
			// Current 300µs vs previous 200µs: past the 1.25 factor.
			{Name: "BenchmarkBVDeliver", NsPerOp: 200000, AllocsPerOp: 15},
		},
	})
	var out, errw bytes.Buffer
	err := run(strings.NewReader(benchOut), &out, &errw, prev, "BenchmarkBVDeliver:1.25")
	if err == nil || !strings.Contains(err.Error(), "regression: BenchmarkBVDeliver") {
		t.Fatalf("want ns regression error, got %v", err)
	}
}

// ns/op gates only compare meaningfully on the machine class that made
// the snapshot: on CPU mismatch they are skipped with a warning, while
// allocation gates — machine-independent — keep firing.
func TestNsGateSkippedOnCPUMismatchAllocsStillEnforced(t *testing.T) {
	prev := writePrev(t, Doc{
		CPU: "Different CPU @ 3.00GHz",
		Benchmarks: []Entry{
			{Name: "BenchmarkBVDeliver", NsPerOp: 1, AllocsPerOp: 15},
		},
	})
	var out, errw bytes.Buffer
	// ns gate alone: skipped, no error despite a 300000× "slowdown".
	if err := run(strings.NewReader(benchOut), &out, &errw, prev, "BenchmarkBVDeliver:1.25"); err != nil {
		t.Fatalf("ns gate must be skipped on cpu mismatch: %v", err)
	}
	if !strings.Contains(errw.String(), "ns/op gates skipped: cpu") {
		t.Fatalf("missing cpu-mismatch warning, stderr = %q", errw.String())
	}
	// Alloc gate on the same mismatched snapshot still enforces.
	prev2 := writePrev(t, Doc{
		CPU: "Different CPU @ 3.00GHz",
		Benchmarks: []Entry{
			{Name: "BenchmarkBVDeliver", NsPerOp: 1, AllocsPerOp: 2},
		},
	})
	out.Reset()
	errw.Reset()
	err := run(strings.NewReader(benchOut), &out, &errw, prev2, "BenchmarkBVDeliver:allocs:1.10")
	if err == nil || !strings.Contains(err.Error(), "regression: BenchmarkBVDeliver") {
		t.Fatalf("alloc gate must still enforce on cpu mismatch, got %v", err)
	}
}

// A 1-CPU and a 2-CPU run of the same CPU model are different machine
// shapes: ns/op gates are skipped with the cpu-mismatch style warning,
// allocation gates still enforce. A suffix-less capture records procs 1.
func TestNsGateSkippedOnProcsMismatchAllocsStillEnforced(t *testing.T) {
	oneCPU := strings.NewReplacer("-8 ", " ").Replace(benchOut)
	var out, errw bytes.Buffer
	if err := run(strings.NewReader(oneCPU), &out, &errw, "", ""); err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Procs != 1 || find(doc.Benchmarks, "BenchmarkBVDeliver") == nil {
		t.Fatalf("suffix-less capture: procs = %d, benchmarks %+v", doc.Procs, doc.Benchmarks)
	}

	prev := writePrev(t, Doc{
		CPU:   "Testing CPU @ 2.00GHz",
		Procs: 2,
		Benchmarks: []Entry{
			{Name: "BenchmarkBVDeliver", NsPerOp: 1, AllocsPerOp: 15},
		},
	})
	out.Reset()
	if err := run(strings.NewReader(benchOut), &out, &errw, prev, "BenchmarkBVDeliver:1.25"); err != nil {
		t.Fatalf("ns gate must be skipped on procs mismatch: %v", err)
	}
	if want := "benchjson: ns/op gates skipped: procs 8 differs from snapshot 2\n"; errw.String() != want {
		t.Fatalf("stderr = %q, want %q", errw.String(), want)
	}
	prev2 := writePrev(t, Doc{
		CPU:   "Testing CPU @ 2.00GHz",
		Procs: 2,
		Benchmarks: []Entry{
			{Name: "BenchmarkBVDeliver", NsPerOp: 1, AllocsPerOp: 2},
		},
	})
	out.Reset()
	err := run(strings.NewReader(benchOut), &out, &errw, prev2, "BenchmarkBVDeliver:allocs:1.10")
	if err == nil || !strings.Contains(err.Error(), "regression: BenchmarkBVDeliver") {
		t.Fatalf("alloc gate must still enforce on procs mismatch, got %v", err)
	}
}

func TestGateErrorsOnMalformedSpec(t *testing.T) {
	prev := writePrev(t, Doc{Benchmarks: []Entry{{Name: "BenchmarkBVDeliver", NsPerOp: 1}}})
	var out, errw bytes.Buffer
	for _, bad := range []string{"BenchmarkBVDeliver", "BenchmarkBVDeliver:allocs:x:1.10", "BenchmarkBVDeliver:bogus:1.10", "BenchmarkBVDeliver:0"} {
		out.Reset()
		if err := run(strings.NewReader(benchOut), &out, &errw, prev, bad); err == nil {
			t.Errorf("gate %q: want error, got nil", bad)
		}
	}
}

// repeats is a -count 5 capture of one benchmark whose allocs/op swings
// between samples, the shape BenchmarkMultiBroadcast shows (42 vs 48/49).
func repeats(allocs ...int) string {
	var b strings.Builder
	b.WriteString("cpu: Testing CPU @ 2.00GHz\n")
	for i, a := range allocs {
		fmt.Fprintf(&b, "BenchmarkMultiBroadcast-2 \t 5 \t %d ns/op \t 1000 B/op \t %d allocs/op\n", 100+10*i, a)
	}
	return b.String()
}

// Repeated lines of one name fold into one entry holding the medians,
// the sample count and the spread.
func TestRepeatsFoldIntoMedians(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(strings.NewReader(repeats(48, 42, 49, 42, 42)), &out, &errw, "", ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc Doc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	want := Entry{
		Name: "BenchmarkMultiBroadcast", Iterations: 25, NsPerOp: 120, BytesPerOp: 1000, AllocsPerOp: 42,
		Samples: 5, NsMin: 100, NsMax: 140, AllocsMin: 42, AllocsMax: 49,
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0] != want {
		t.Fatalf("folded entries = %+v, want [%+v]", doc.Benchmarks, want)
	}
}

// The allocation gate reads the median: one high sample passes, a
// majority of high samples still trips it.
func TestAllocGateUsesMedian(t *testing.T) {
	prev := writePrev(t, Doc{
		CPU:        "Testing CPU @ 2.00GHz",
		Benchmarks: []Entry{{Name: "BenchmarkMultiBroadcast", NsPerOp: 120, AllocsPerOp: 42}},
	})
	const gate = "BenchmarkMultiBroadcast:allocs:1.10"
	for _, tc := range []struct {
		allocs []int
		trip   bool
	}{
		{[]int{42, 49, 42, 42, 42}, false},
		{[]int{48, 42, 49, 42, 42}, false},
		{[]int{48, 49, 42, 48, 42}, true},
	} {
		var out, errw bytes.Buffer
		err := run(strings.NewReader(repeats(tc.allocs...)), &out, &errw, prev, gate)
		if tripped := err != nil; tripped != tc.trip {
			t.Errorf("allocs %v: gate error = %v, want tripped=%v", tc.allocs, err, tc.trip)
		}
	}
}
