package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads at tiny sizes, traced, so that one
// `go test` proves the benchmark builds, runs, passes its own checks and
// can print both result lines of the contract.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 1, smoke: true, trace: true, tracer: newTracer(), par: 2, root: "..", work: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.serve {
				if _, err := exec.LookPath("go"); err != nil {
					t.Skip("rc-serve builds cmd/tuffyd and the go tool is not on PATH")
				}
			}
			rr, err := run(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			attempted, failed, correct := rr.totals()
			if !correct || failed != 0 || attempted == 0 {
				rr.printTable()
				t.Fatalf("attempted %d, failed %d, correct %v", attempted, failed, correct)
			}
			for _, trace := range []bool{false, true} {
				rr.Trace = trace
				line, err := rr.contractLine()
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Metrics map[string]struct{ Value float64 } `json:"metrics"`
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if !trace {
					for name, m := range got.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			}
			if cov := rr.PerLayer["span_coverage"].Value; cov < 95 {
				t.Errorf("span coverage %.2f%%, want >= 95%%", cov)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in main.go and
// workloads.go in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (jsonMetric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, perLayerMetrics)
}

// TestDeltaPairInverse: the delta followed by its inverse must leave the
// evidence as it was, or rc-serve's evidence would drift over a run.
func TestDeltaPairInverse(t *testing.T) {
	w, _ := findWorkload("rc-serve")
	in, err := w.makeInput(3, true)
	if err != nil {
		t.Fatal(err)
	}
	fwd, inv := deltaPair(in.ds, "refers", deltaOps, 3)
	if len(fwd) != deltaOps || len(inv) != deltaOps {
		t.Fatalf("got %d forward and %d inverse ops, want %d", len(fwd), len(inv), deltaOps)
	}
	for i, ops := range [][]evidenceOp{fwd, inv} {
		d, err := toDelta(in.ds.Prog, ops)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.ds.Ev.Apply(d); err != nil {
			t.Fatal(err)
		}
		if changed := evidenceText(in.ds) != in.evidence; changed != (i == 0) {
			t.Fatalf("after step %d the evidence changed = %v", i, changed)
		}
	}
}

func fakeOut(answerMs ...float64) outFile {
	var of outFile
	for i, v := range answerMs {
		of.Runs = append(of.Runs, &runReport{
			Workload: "er-search", Seed: int64(i),
			EndToEnd: map[string]metric{"answer_ms": {Value: v, Unit: "ms"}},
			Detail:   map[string]metric{"map_cost": {Value: 100, Unit: "cost"}},
			Phases:   []phaseCount{{Name: "reps", Attempted: 5}},
		})
	}
	return of
}

func TestCompareVerdicts(t *testing.T) {
	base := fakeOut(1000, 1001, 1002, 1003)
	for _, tc := range []struct {
		name    string
		b       outFile
		verdict string
		code    int
	}{
		{"same", fakeOut(1001, 1000, 1003, 1002), "ok", 0},
		{"within bound", fakeOut(1050, 1051, 1052, 1053), "ok", 0},
		{"worse", fakeOut(1500, 1501, 1502, 1503), "worse", 1},
		{"noisy", fakeOut(700, 1000, 1300, 1600), "unresolved", 0},
	} {
		var out bytes.Buffer
		if code := compareOut(&out, base, tc.b); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "answer_ms") {
				row = line
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(row), tc.verdict) {
			t.Errorf("%s: row %q, want verdict %s", tc.name, row, tc.verdict)
		}
	}
	failing := fakeOut(1000, 1001, 1002, 1003)
	failing.Runs[0].Phases[0].Failed = 1
	if code := compareOut(&bytes.Buffer{}, base, failing); code != 1 {
		t.Errorf("more failed operations than the baseline must exit 1, got %d", code)
	}
	costlier := fakeOut(1000, 1001, 1002, 1003)
	costlier.Runs[2].Detail["map_cost"] = metric{Value: 101, Unit: "cost"}
	if code := compareOut(&bytes.Buffer{}, base, costlier); code != 1 {
		t.Errorf("a MAP cost 1%% worse at one seed must exit 1, got %d", code)
	}
}
