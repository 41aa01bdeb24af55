package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var m struct{ Name, Unit string }
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	d.name, d.unit = m.Name, m.Unit
	return nil
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestRegistryMatchesBenchmarkFile pins the binary's metric and workload
// tables to BENCHMARK.json, in order.
func TestRegistryMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmark(t)
	if fmt.Sprint(bf.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end metrics differ:\nfile   %v\nbinary %v", bf.EndToEnd, endToEnd)
	}
	if fmt.Sprint(bf.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer metrics differ:\nfile   %v\nbinary %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the binary does not have", n)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the binary %d", len(names), len(workloads))
	}
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced and
// traced, on two seeds: every named metric must appear with its unit,
// every verification must pass, and nothing may fail.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmark(t)
	for _, w := range bf.Workloads {
		for _, seed := range []int{1, 2} {
			for _, trace := range []int{0, 1} {
				name := fmt.Sprintf("%s/seed%d/trace%d", w.Name, seed, trace)
				t.Run(name, func(t *testing.T) {
					var out, errb bytes.Buffer
					args := []string{"--workload", w.Name, "--seed", fmt.Sprint(seed),
						"--seconds", "0", "--trace", fmt.Sprint(trace), "--tiny"}
					if code := run(args, &out, &errb); code != 0 {
						t.Fatalf("exit %d: %s", code, errb.String())
					}
					lines := strings.Split(strings.TrimSpace(out.String()), "\n")
					var res struct {
						Correct   bool
						Attempted int64
						Failed    int64
						Metrics   map[string]struct {
							Value float64
							Unit  string
						}
					}
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
						t.Fatalf("last line is not the result: %v", err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("correct=%v attempted=%d failed=%d: %s",
							res.Correct, res.Attempted, res.Failed, errb.String())
					}
					defs := bf.EndToEnd
					if trace == 1 {
						defs = bf.PerLayer
					}
					if len(res.Metrics) != len(defs) {
						t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
					}
					for _, d := range defs {
						m, ok := res.Metrics[d.name]
						switch {
						case !ok:
							t.Errorf("metric %s missing", d.name)
						case m.Unit != d.unit:
							t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
						case trace == 0 && m.Value <= 0:
							t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
						}
					}
				})
			}
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
