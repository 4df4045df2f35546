// Command tuffybench regenerates the tables and figures of the Tuffy paper
// (VLDB 2011) on the synthetic workloads generated by internal/datagen.
// docs/BENCHMARKS.md maps each experiment to the part of the paper it
// reproduces; wall-clock regressions are judged by benchmark/, not here.
//
// Usage:
//
//	tuffybench -exp table2          # one experiment
//	tuffybench -exp all             # everything
//	tuffybench -exp figure6 -full   # paper-closer scale (slower)
//
// `tuffybench -h` lists the experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"tuffy/internal/bench"
)

// drivers is the one list of experiments: the -exp help text, the "unknown
// experiment" message and the run loop all read it.
var drivers = []struct {
	name string
	run  func(context.Context, bench.Scale) (*bench.Table, error)
}{
	{"table1", bench.Table1},
	{"table2", bench.Table2},
	{"table3", bench.Table3},
	{"table4", bench.Table4},
	{"table5", bench.Table5},
	{"table6", bench.Table6},
	{"table7", bench.Table7},
	{"figure3", bench.Figure3},
	{"figure4", bench.Figure4},
	{"figure5", bench.Figure5},
	{"figure6", bench.Figure6},
	{"figure8", bench.Figure8},
	{"theorem31", bench.Theorem31},
	{"erplus", bench.ERPlus},
	{"closure", bench.ClosureAblation},
}

func main() {
	names := make([]string, len(drivers))
	for i, d := range drivers {
		names[i] = d.name
	}
	known := strings.Join(names, " ") + " all"

	exp := flag.String("exp", "all", "experiment to run: "+known)
	full := flag.Bool("full", false, "run at larger, paper-closer scale")
	flag.Parse()

	// SIGINT cancels the running experiment's searches gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	scale := bench.DefaultScale()
	if *full {
		scale = bench.FullScale()
	}

	want := strings.ToLower(*exp)
	ran := 0
	for _, d := range drivers {
		if want != "all" && want != d.name {
			continue
		}
		start := time.Now()
		t, err := d.run(ctx, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tuffybench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
		fmt.Printf("(%s finished in %v)\n", d.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "tuffybench: unknown experiment %q (want one of: %s)\n", *exp, known)
		os.Exit(2)
	}
}
