// Information extraction (the paper's IE workload): segment thousands of
// independent token chains into fields. The MRF shatters into thousands of
// tiny components — the best case for batch loading and parallel
// component-aware search (Sections 3.3, Table 7).
//
//	go run ./examples/infoextract
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"tuffy"
	"tuffy/internal/datagen"
)

func main() {
	ds := datagen.IE(datagen.IEConfig{Chains: 1200, Seed: 5})
	fmt.Printf("IE dataset: %d evidence tuples\n", ds.Ev.Total())

	run := func(threads int) (float64, time.Duration, int) {
		// A fresh engine per run: a shared one would answer the second run's
		// components from the first run's memo and time nothing.
		eng, err := tuffy.Open(ds.Prog, ds.Ev, tuffy.EngineConfig{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.InferMAP(context.Background(), tuffy.InferOptions{MaxFlips: 300_000, Seed: 5, Parallelism: threads})
		if err != nil {
			log.Fatal(err)
		}
		return res.Cost, res.SearchTime, res.Partitions
	}

	c1, t1, parts := run(1)
	fmt.Printf("\n1 worker : cost %.1f in %v across %d components\n", c1, t1.Round(time.Millisecond), parts)

	n := runtime.NumCPU()
	cN, tN, _ := run(n)
	fmt.Printf("%d workers: cost %.1f in %v\n", n, cN, tN.Round(time.Millisecond))
	if tN < t1 {
		fmt.Printf("parallel speedup: %.1fx (paper Table 7 reports ~6x on 8 cores)\n",
			float64(t1)/float64(tN))
	}
	if cN != c1 {
		fmt.Println("note: costs differ slightly across thread counts only if budgets round differently")
	}
}
