// Command benchmark is the repository's one repeatable benchmark: four
// named workloads, each measured end to end (untraced) and layer by layer
// (a separate traced run), with every answer checked. BENCHMARK.json at the
// repository root describes it; README.md in this directory explains the
// workloads, the metrics and their limits.
//
//	bash benchmark/run.sh --workload er-search --seed 7 --seconds 20 --trace 0
//	go run -C benchmark . -smoke            # all four workloads, tiny sizes
//	go run -C benchmark . -compare a.json b.json
//
// The last line of standard output is one JSON object; the human-readable
// table goes to standard error. The program claims no gain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// metricDef names one metric of the contract in BENCHMARK.json. The Go
// table and the JSON file must agree; benchmark_test.go checks it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by; 0 = none
}

// endToEndMetrics are what a user of the system sees, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"answer_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// serveDetailMetrics are rc-serve's per-operation-type numbers. They are
// taken from the same untraced run and gated by -compare, but are not in
// the contract's end_to_end list because the batch workloads have no such
// operations.
var serveDetailMetrics = []metricDef{
	{"map_p95_ms", "ms", "lower", 0.10},
	{"marginal_p50_ms", "ms", "lower", 0.10},
	{"update_p50_ms", "ms", "lower", 0.15},
	{"restart_s", "s", "lower", 0.10},
}

// perLayerMetrics are the traced run's numbers, one or more per layer. A
// layer a workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"parse_s", "s", "lower", 0},
	{"evidence_tuples", "count", "lower", 0},
	{"pool_hits", "count", "higher", 0},
	{"pool_misses", "count", "lower", 0},
	{"disk_reads", "count", "lower", 0},
	{"disk_writes", "count", "lower", 0},
	{"join_rows_visited", "count", "lower", 0},
	{"tables_s", "s", "lower", 0},
	{"ground_s", "s", "lower", 0},
	{"ground_raw", "count", "lower", 0},
	{"ground_clauses", "count", "lower", 0},
	{"ground_peak_bytes", "bytes", "lower", 0},
	{"partition_s", "s", "lower", 0},
	{"parts", "count", "higher", 0},
	{"cut_clauses", "count", "lower", 0},
	{"max_part_bytes", "bytes", "lower", 0},
	{"map_search_s", "s", "lower", 0},
	{"map_cost", "cost", "lower", 0},
	{"flips", "count", "higher", 0},
	{"flips_per_s", "1/s", "higher", 0},
	{"mcsat_s", "s", "lower", 0},
	{"samples_per_s", "1/s", "higher", 0},
	{"memo_hits", "count", "higher", 0},
	{"memo_misses", "count", "lower", 0},
	{"ground_share", "%", "lower", 0},
	{"partition_share", "%", "lower", 0},
	{"search_share", "%", "lower", 0},
	{"span_coverage", "%", "higher", 0},
	{"trace_overhead", "s", "lower", 0},
	{"queue_wait_ms_avg", "ms", "lower", 0},
	{"cache_hit_ratio", "%", "higher", 0},
	{"completed", "count", "higher", 0},
	{"batched", "count", "higher", 0},
	{"rejected", "count", "lower", 0},
	{"hit_p50_ms", "ms", "lower", 0},
	{"update_server_ms", "ms", "lower", 0},
	{"clauses_rerun", "count", "lower", 0},
	{"clauses_total", "count", "lower", 0},
	{"components_reused", "count", "higher", 0},
	{"recovery_ms", "ms", "lower", 0},
	{"replayed_deltas", "count", "lower", 0},
	{"data_dir_bytes", "bytes", "lower", 0},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	par      int // W = min(2, NumCPU): ground workers, query parallelism, tuffyd threads/inflight, HTTP clients
	root     string
	work     string
	traceOut string
	tracer   *tracer // shared by every workload of a traced invocation
}

// metric is one reported number; Sample describes the values behind it.
type metric struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Sample *summary `json:"sample,omitempty"`
}

type phaseCount struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

type checkResult struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// runReport is everything one run of one workload measured.
type runReport struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Smoke    bool              `json:"smoke,omitempty"`
	Seconds  float64           `json:"seconds"`
	Clients  int               `json:"clients"`
	EndToEnd map[string]metric `json:"endToEnd"`
	Detail   map[string]metric `json:"detail,omitempty"`
	PerLayer map[string]metric `json:"perLayer,omitempty"`
	Phases   []phaseCount      `json:"phases"`
	Checks   []checkResult     `json:"checks"`
	Notes    []string          `json:"notes,omitempty"`
}

func newReport(w workload, cfg config) *runReport {
	rr := &runReport{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Smoke: cfg.smoke,
		Seconds: cfg.seconds.Seconds(), Clients: cfg.par,
		EndToEnd: map[string]metric{}, Detail: map[string]metric{},
	}
	if cfg.trace {
		rr.PerLayer = map[string]metric{}
		for _, d := range perLayerMetrics {
			rr.PerLayer[d.Name] = metric{Unit: d.Unit}
		}
		cfg.tracer.workload = w.name
	}
	return rr
}

func (rr *runReport) endToEnd(name string, v float64, s summary) {
	rr.EndToEnd[name] = metric{Value: v, Unit: unitOf(endToEndMetrics, name), Sample: &s}
}

func (rr *runReport) detail(name string, v float64, unit string) {
	rr.Detail[name] = metric{Value: v, Unit: unit}
}

func (rr *runReport) detailSample(name string, v float64, unit string, s summary) {
	rr.Detail[name] = metric{Value: v, Unit: unit, Sample: &s}
}

func (rr *runReport) layer(name string, v float64) {
	rr.PerLayer[name] = metric{Value: v, Unit: unitOf(perLayerMetrics, name)}
}

func (rr *runReport) check(name string, ok bool, note string) {
	if ok {
		note = ""
	}
	rr.Checks = append(rr.Checks, checkResult{Name: name, OK: ok, Note: note})
}

func (rr *runReport) note(format string, args ...any) {
	if len(rr.Notes) < 20 {
		rr.Notes = append(rr.Notes, fmt.Sprintf(format, args...))
	}
}

func (rr *runReport) phase(name string, attempted, failed int) {
	rr.Phases = append(rr.Phases, phaseCount{Name: name, Attempted: attempted, Failed: failed})
}

func (rr *runReport) totals() (attempted, failed int, correct bool) {
	for _, p := range rr.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	correct = failed == 0
	for _, c := range rr.Checks {
		correct = correct && c.OK
	}
	return attempted, failed, correct
}

// contractLine is the result object the builder contract prescribes.
func (rr *runReport) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src, defs := rr.EndToEnd, endToEndMetrics
	if rr.Trace {
		src, defs = rr.PerLayer, perLayerMetrics
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		m, ok := src[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", rr.Workload, d.Name)
		}
		metrics[d.Name] = mv{m.Value, m.Unit}
	}
	attempted, failed, correct := rr.totals()
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, attempted, failed, metrics})
}

// printTable writes the human-readable view to standard error.
func (rr *runReport) printTable() {
	tw := tabwriter.NewWriter(os.Stderr, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "== %s  seed=%d  trace=%v  clients/workers=%d ==\n", rr.Workload, rr.Seed, rr.Trace, rr.Clients)
	section := func(title string, ms map[string]metric, order []metricDef) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(tw, "-- %s\n", title)
		names := sortedKeys(ms)
		if order != nil {
			names = names[:0]
			for _, d := range order {
				names = append(names, d.Name)
			}
		}
		for _, n := range names {
			m := ms[n]
			line := fmt.Sprintf("%s\t%.6g\t%s", n, m.Value, m.Unit)
			if s := m.Sample; s != nil && s.N > 0 {
				line += fmt.Sprintf("\tn=%d", s.N)
				if s.P75 != 0 || s.P25 != 0 {
					line += fmt.Sprintf("\tq1=%.6g q3=%.6g", s.P25, s.P75)
				}
				if s.TailPct > 0 {
					line += fmt.Sprintf("\tp%.0f=%.6g", s.TailPct, s.Tail)
				}
			}
			fmt.Fprintln(tw, line)
		}
	}
	section("end to end (untraced)", rr.EndToEnd, endToEndMetrics)
	section("detail", rr.Detail, nil)
	section("per layer (traced)", rr.PerLayer, perLayerMetrics)
	for _, p := range rr.Phases {
		fmt.Fprintf(tw, "phase %s\tattempted=%d\tfailed=%d\n", p.Name, p.Attempted, p.Failed)
	}
	for _, c := range rr.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED " + c.Note
		}
		fmt.Fprintf(tw, "check\t%s\t%s\n", c.Name, verdict)
	}
	for _, n := range rr.Notes {
		fmt.Fprintf(tw, "note\t%s\n", n)
	}
	tw.Flush()
}

// hostStamp records where the numbers were measured.
type hostStamp struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Workers    int    `json:"workers"`
}

func stampHost(root string, par int) hostStamp {
	// A driver's checkout is not a git repository; asking git there would
	// make it search the directories above the checkout.
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return hostStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit, Workers: par,
	}
}

// outFile is what -out accumulates: every run appended, so ten seeds of
// four workloads end up in one file that -compare reads.
type outFile struct {
	Host  hostStamp    `json:"host"`
	Runs  []*runReport `json:"runs"`
	Claim *string      `json:"claim"`
}

func appendOut(path string, host hostStamp, runs []*runReport) error {
	var of outFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &of); err != nil {
			return fmt.Errorf("%s exists but is not a benchmark output file: %w", path, err)
		}
	}
	of.Host = host
	of.Runs = append(of.Runs, runs...)
	b, err := json.MarshalIndent(of, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// defaultRoot finds the repository root from either place the program is
// started: the root itself (run.sh) or this directory (go run -C benchmark).
func defaultRoot() string {
	if _, err := os.Stat("cmd/tuffyd"); err != nil {
		return ".."
	}
	return "."
}

func run(ctx context.Context, w workload, cfg config) (*runReport, error) {
	if w.serve {
		return runServe(ctx, w, cfg)
	}
	return runBatch(ctx, w, cfg)
}

// fatal ends the run without a result line: an operation the workloads
// were chosen never to fail has failed, and the numbers would mean nothing.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: ie-ground, er-search, lp-budget or rc-serve (empty = all four)")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs, the op schedule and every query")
		secs     = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 = the traced run that produces the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny sizes and one rep: proves the benchmark builds, runs and its checks pass")
		out      = flag.String("out", "", "append the full report of this invocation's runs to this JSON file")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file at exit")
		root     = flag.String("root", defaultRoot(), "repository root (where cmd/tuffyd is built from)")
		work     = flag.String("work", "", "scratch directory for inputs, data directories and built binaries (default <root>/.bench_build)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if any metric is worse")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	cfg := config{
		seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace != 0, smoke: *smoke,
		par: min(2, runtime.NumCPU()), root: *root, work: *work, traceOut: *traceOut,
	}
	if cfg.trace {
		cfg.tracer = newTracer()
	}
	if cfg.smoke {
		cfg.seconds = 0 // one rep, a few dozen ops, one restart
	}
	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build")
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}

	ctx := context.Background()
	host := stampHost(cfg.root, cfg.par)
	var reports []*runReport
	allCorrect := true
	for _, w := range selected {
		rr, err := run(ctx, w, cfg)
		if err != nil {
			fatal(err)
		}
		rr.printTable()
		line, err := rr.contractLine()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		_, _, correct := rr.totals()
		allCorrect = allCorrect && correct
		reports = append(reports, rr)
	}
	if cfg.trace && cfg.traceOut != "" {
		if err := cfg.tracer.write(cfg.traceOut); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := appendOut(*out, host, reports); err != nil {
			fatal(err)
		}
	}
	if len(selected) > 1 {
		// The one-command summary: every workload, the host stamp, no claim.
		b, err := json.Marshal(outFile{Host: host, Runs: reports})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
	if !allCorrect {
		os.Exit(1)
	}
}
