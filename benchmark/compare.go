package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// mapCostBound gates the MAP cost in -compare. At one seed and flip budget
// the cost repeats exactly, so it is judged seed by seed, without a spread:
// any movement is the change's doing.
const mapCostBound = 0.005

// gatedMetrics lists the timings and sizes -compare judges on a workload:
// the contract's end-to-end metrics and rc-serve's per-operation numbers.
func gatedMetrics(w workload) []metricDef {
	if w.serve {
		return append(append([]metricDef(nil), endToEndMetrics...), serveDetailMetrics...)
	}
	return endToEndMetrics
}

// worstCost pairs the two sides' runs by seed and returns how many seeds
// were paired and the largest share by which b's MAP cost exceeds a's.
func worstCost(a, b side) (pairs int, worst float64) {
	costs := map[int64]float64{}
	for _, r := range a.runs {
		costs[r.Seed] = r.Detail["map_cost"].Value
	}
	worst = math.Inf(-1)
	for _, r := range b.runs {
		ca, ok := costs[r.Seed]
		if !ok {
			continue
		}
		pairs++
		cb := r.Detail["map_cost"].Value
		switch {
		case ca != 0:
			worst = math.Max(worst, (cb-ca)/ca)
		case cb != 0:
			worst = math.Inf(1)
		default:
			worst = math.Max(worst, 0)
		}
	}
	return pairs, worst
}

func readOut(path string) (outFile, error) {
	var of outFile
	b, err := os.ReadFile(path)
	if err != nil {
		return of, err
	}
	if err := json.Unmarshal(b, &of); err != nil {
		return of, fmt.Errorf("%s: %w", path, err)
	}
	return of, nil
}

// side is one file's untraced runs of one workload.
type side struct {
	runs              []*runReport
	attempted, failed int
}

func collect(of outFile, name string) side {
	var s side
	for _, r := range of.Runs {
		if r.Workload != name || r.Trace {
			continue
		}
		s.runs = append(s.runs, r)
		a, f, _ := r.totals()
		s.attempted += a
		s.failed += f
	}
	return s
}

// values returns one metric's value in every run, and the spread between
// runs as the interquartile distance over the median. With fewer than four
// runs the spread falls back to the widest within-run sample.
func (s side) values(name string) (vals []float64, spread float64) {
	within := 0.0
	for _, r := range s.runs {
		m, ok := r.EndToEnd[name]
		if !ok {
			m, ok = r.Detail[name]
		}
		if !ok {
			continue
		}
		vals = append(vals, m.Value)
		if sm := m.Sample; sm != nil && sm.N >= 4 && sm.P50 != 0 {
			within = math.Max(within, (sm.P75-sm.P25)/math.Abs(sm.P50))
		}
	}
	if len(vals) < 4 {
		return vals, within
	}
	sm := summarize(vals)
	if sm.P50 == 0 {
		return vals, 0
	}
	return vals, (sm.P75 - sm.P25) / math.Abs(sm.P50)
}

// compareFiles prints, per workload and gated metric, both medians, the
// relative difference (positive = b is worse), the bound and a verdict:
// "worse" when b is worse than a by more than the bound and by more than
// the spread, "unresolved" when the spread is wider than the bound, else
// "ok". It returns the process exit code: 1 if anything is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readOut(pathA)
	b, errB := readOut(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareOut(w, a, b)
}

func compareOut(w io.Writer, a, b outFile) int {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta (n)\tb (n)\tdiff\tspread\tbound\tverdict\n")
	code := 0
	for _, wl := range workloads {
		sa, sb := collect(a, wl.name), collect(b, wl.name)
		if len(sa.runs) == 0 || len(sb.runs) == 0 {
			continue
		}
		for _, d := range gatedMetrics(wl) {
			va, spreadA := sa.values(d.Name)
			vb, spreadB := sb.values(d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			spread := math.Max(spreadA, spreadB)
			// diff is the share of a's median by which b is worse.
			diff := 0.0
			switch {
			case ma != 0:
				diff = (mb - ma) / math.Abs(ma)
			case mb != 0:
				diff = math.Inf(1)
			}
			if d.Better == "higher" {
				diff = -diff
			}
			verdict := "ok"
			switch {
			case diff > d.Bound && diff > spread:
				verdict = "worse"
				code = 1
			case spread > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.2f%%\t%.2f%%\t%.1f%%\t%s\n",
				wl.name, d.Name, d.Unit, ma, len(va), mb, len(vb), 100*diff, 100*spread, 100*d.Bound, verdict)
		}
		if pairs, worst := worstCost(sa, sb); pairs > 0 {
			verdict := "ok"
			if worst > mapCostBound {
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(tw, "%s\tmap_cost\tcost\t(%d seeds paired)\t\t%+.2f%%\t\t%.1f%%\t%s\n",
				wl.name, pairs, 100*worst, 100*mapCostBound, verdict)
		}
		verdict := "ok"
		if sb.failed > sa.failed {
			verdict = "worse"
			code = 1
		}
		fmt.Fprintf(tw, "%s\tfailed_ops\tcount\t%d/%d\t%d/%d\t\t\t0\t%s\n",
			wl.name, sa.failed, sa.attempted, sb.failed, sb.attempted, verdict)
	}
	tw.Flush()
	return code
}
