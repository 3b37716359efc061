package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks
// the program against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestToyWorkloads runs every workload at toy size, untraced and traced,
// and requires a correct result that carries every metric BENCHMARK.json
// names for that mode, with its unit.
func TestToyWorkloads(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]metricDef{defs(spec.EndToEnd), defs(spec.PerLayer)} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "0.05",
					"--trace", fmt.Sprint(trace), "--toy", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed: %s", stdout.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", d.name, m, ok, d.unit)
					}
				}
			})
		}
	}
}

// TestRegistryMatchesBenchmarkJSON keeps the program's metric lists and
// BENCHMARK.json in step, names, units and order.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, c := range []struct {
		what      string
		got, want []metricDef
	}{
		{"end_to_end", endToEnd, defs(spec.EndToEnd)},
		{"per_layer", perLayer, defs(spec.PerLayer)},
	} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("%s: program has %v, BENCHMARK.json %v", c.what, c.got, c.want)
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

func TestBadFlagsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "multi32", "--trace", "2"},
		{"--workload", "multi32", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func defs(xs []jsonMetric) []metricDef {
	out := make([]metricDef, len(xs))
	for i, x := range xs {
		out[i] = metricDef{name: x.Name, unit: x.Unit}
	}
	return out
}
