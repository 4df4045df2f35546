// Package bench contains the experiment drivers that regenerate every table
// and figure of the Tuffy paper's evaluation (Section 4 and appendices).
// Each driver is used both by cmd/tuffybench (human-readable output) and by
// the root bench_test.go (go test -bench). docs/BENCHMARKS.md maps each
// experiment to the table or figure it reproduces.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"tuffy/internal/datagen"
	"tuffy/internal/db"
	"tuffy/internal/grounding"
	"tuffy/internal/search"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render pretty-prints the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// Scale controls experiment sizes so the suite finishes in seconds by
// default. Full scale (cmd/tuffybench -full) is ~10x larger.
type Scale struct {
	RC datagen.RCConfig
	IE datagen.IEConfig
	LP datagen.LPConfig
	ER datagen.ERConfig
	// Flips is the total search budget for time-cost experiments.
	Flips int64
	// MMFlips is the (much smaller) budget for in-database search.
	MMFlips int64
	// DiskLatency injected per page access for I/O-sensitive experiments.
	DiskLatency time.Duration
	// Example1N is the component count for Figure 8 / Theorem 3.1.
	Example1N int
}

// DefaultScale keeps every experiment under a few seconds.
func DefaultScale() Scale {
	return Scale{
		RC:          datagen.RCConfig{Papers: 300, Authors: 120, Categories: 5, Clusters: 60, Seed: 11},
		IE:          datagen.IEConfig{Chains: 500, Seed: 12},
		LP:          datagen.LPConfig{Profs: 10, Students: 40, Courses: 24, Seed: 13},
		ER:          datagen.ERConfig{Records: 45, Groups: 12, Seed: 14},
		Flips:       200_000,
		MMFlips:     30,
		DiskLatency: 50 * time.Microsecond,
		Example1N:   400,
	}
}

// FullScale is closer to the paper's sizes (minutes, not hours).
func FullScale() Scale {
	return Scale{
		RC:          datagen.RCConfig{Papers: 1200, Authors: 500, Categories: 8, Clusters: 200, Seed: 11},
		IE:          datagen.IEConfig{Chains: 3000, Seed: 12},
		LP:          datagen.LPConfig{Profs: 15, Students: 90, Courses: 60, Seed: 13},
		ER:          datagen.ERConfig{Records: 90, Groups: 25, Seed: 14},
		Flips:       2_000_000,
		MMFlips:     100,
		DiskLatency: 100 * time.Microsecond,
		Example1N:   1000,
	}
}

// Datasets instantiates the four benchmark datasets at this scale.
func (s Scale) Datasets() []*datagen.Dataset {
	return []*datagen.Dataset{
		datagen.LP(s.LP),
		datagen.IE(s.IE),
		datagen.RC(s.RC),
		datagen.ER(s.ER),
	}
}

// grounded holds one dataset grounded by one strategy.
type grounded struct {
	ds     *datagen.Dataset
	db     *db.DB
	tables *grounding.TableSet
	res    *grounding.Result
	dur    time.Duration
}

// groundWith builds tables and grounds with the given strategy ("bottomup"
// or "topdown"), timing the whole grounding phase.
func groundWith(ctx context.Context, ds *datagen.Dataset, strategy string, dbCfg db.Config, opts grounding.Options) (*grounded, error) {
	d := db.Open(dbCfg)
	start := time.Now()
	ts, err := grounding.BuildTables(d, ds.Prog, ds.Ev)
	if err != nil {
		return nil, fmt.Errorf("%s tables: %w", ds.Name, err)
	}
	var res *grounding.Result
	if strategy == "topdown" {
		res, err = grounding.GroundTopDown(ctx, ts, opts)
	} else {
		res, err = grounding.GroundBottomUp(ctx, ts, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s grounding: %w", ds.Name, strategy, err)
	}
	return &grounded{ds: ds, db: d, tables: ts, res: res, dur: time.Since(start)}, nil
}

// fmtDur renders a duration in ms with 1 decimal.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fmtCost(c float64) string {
	if c == 0 {
		c = 0 // normalize -0.0
	}
	return fmt.Sprintf("%.1f", c)
}

func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2gM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.3gK", r/1e3)
	default:
		return fmt.Sprintf("%.3g", r)
	}
}

// curvePoints samples a tracker at fractions of its span for compact
// "figure" rows.
func curvePoints(tr *search.Tracker, samples int) []string {
	pts := tr.Points()
	if len(pts) == 0 {
		return []string{"(no points)"}
	}
	maxT := pts[len(pts)-1].Elapsed
	out := make([]string, 0, samples)
	for i := 1; i <= samples; i++ {
		at := time.Duration(int64(maxT) * int64(i) / int64(samples))
		out = append(out, fmt.Sprintf("%s@%s", fmtCost(tr.CostAt(at)), fmtDur(at)))
	}
	return out
}
