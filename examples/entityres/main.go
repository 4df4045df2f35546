// Entity resolution (the paper's ER workload): deduplicate citation
// records connected by a similarity relation, with symmetry and
// transitivity rules that make the MRF one dense component. Demonstrates
// MRF partitioning with a memory budget and Gauss-Seidel partition-aware
// search (Section 3.4).
//
//	go run ./examples/entityres
package main

import (
	"context"
	"fmt"
	"log"

	"tuffy"
	"tuffy/internal/datagen"
)

func main() {
	ds := datagen.ER(datagen.ERConfig{Records: 40, Groups: 10, Seed: 3})
	fmt.Printf("ER dataset: %d similarity pairs\n", ds.Ev.Total())

	// Unbudgeted: the single dense component is searched whole.
	ctx := context.Background()
	whole, err := tuffy.Open(ds.Prog, ds.Ev, tuffy.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	resW, err := whole.InferMAP(ctx, tuffy.InferOptions{MaxFlips: 200_000, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	ms, _ := whole.MRFStats()
	fmt.Printf("\nwhole component: %d atoms, %d clauses, search footprint %d bytes\n",
		ms.NumAtoms, ms.NumClauses, ms.SearchBytes)
	fmt.Printf("  cost %.1f with %d partition(s), %d cut clauses\n",
		resW.Cost, resW.Partitions, resW.CutClauses)

	// Budgeted: force a split and search with Gauss-Seidel. On dense ER
	// the cut is large, so convergence degrades — the trade-off in the
	// paper's Figure 6 (ER panel).
	budget := ms.SearchBytes / 3
	split, err := tuffy.Open(ds.Prog, ds.Ev, tuffy.EngineConfig{MemoryBudgetBytes: budget})
	if err != nil {
		log.Fatal(err)
	}
	resS, err := split.InferMAP(ctx, tuffy.InferOptions{MaxFlips: 200_000, Seed: 3, GaussSeidelRounds: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbudget %d bytes: %d partitions, %d cut clauses\n",
		budget, resS.Partitions, resS.CutClauses)
	fmt.Printf("  cost %.1f\n", resS.Cost)
	if resS.Cost > resW.Cost {
		fmt.Println("  dense graphs pay for partitioning (the paper's Fig. 6 ER panel)")
	} else {
		fmt.Println("  on this synthetic ER the conditioned subproblems are easier, so")
		fmt.Println("  Gauss-Seidel wins despite the cut — see docs/BENCHMARKS.md for discussion")
	}

	// Report the merged groups found by the whole-component run.
	same := ds.Prog.MustPredicate("sameBib")
	merged := 0
	for _, a := range resW.TrueAtoms {
		if a.Pred == same {
			merged++
		}
	}
	fmt.Printf("\nmerged pairs inferred: %d\n", merged)
}
