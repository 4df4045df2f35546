// Relational classification (the paper's RC workload): label a clustered
// citation graph with paper categories, comparing monolithic search
// (Tuffy-p) against component-aware search (Tuffy). On this multi-
// component dataset the component-aware result should be at least as good
// at the same flip budget — usually strictly better (Theorem 3.1).
//
//	go run ./examples/classify
package main

import (
	"context"
	"fmt"
	"log"

	"tuffy"
	"tuffy/internal/datagen"
)

func main() {
	ds := datagen.RC(datagen.RCConfig{
		Papers:     400,
		Authors:    160,
		Categories: 5,
		Clusters:   80,
		Seed:       7,
	})
	fmt.Printf("RC dataset: %d evidence tuples\n", ds.Ev.Total())

	const flips = 400_000

	// One grounded network serves both search modes.
	ctx := context.Background()
	eng, err := tuffy.Open(ds.Prog, ds.Ev, tuffy.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Tuffy-p: no partitioning.
	resP, err := eng.InferMAP(ctx, tuffy.InferOptions{Mode: tuffy.InMemoryMonolithic, MaxFlips: flips, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Tuffy: component-aware.
	resT, err := eng.InferMAP(ctx, tuffy.InferOptions{MaxFlips: flips, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %12s %12s %10s\n", "system", "cost", "search time", "partitions")
	fmt.Printf("%-22s %12.1f %12v %10d\n", "Tuffy-p (monolithic)", resP.Cost, resP.SearchTime.Round(1e6), 1)
	fmt.Printf("%-22s %12.1f %12v %10d\n", "Tuffy (components)", resT.Cost, resT.SearchTime.Round(1e6), resT.Partitions)

	if resT.Cost <= resP.Cost {
		fmt.Println("\ncomponent-aware search matched or beat monolithic search, as Theorem 3.1 predicts")
	} else {
		fmt.Println("\nunexpected: monolithic search won on this seed")
	}

	// Show a few classifications.
	fmt.Println("\nsample labels:")
	cat := ds.Prog.MustPredicate("cat")
	shown := 0
	for _, a := range resT.TrueAtoms {
		if a.Pred == cat && shown < 8 {
			fmt.Printf("  %s -> %s\n", ds.Prog.Syms.Name(a.Args[0]), ds.Prog.Syms.Name(a.Args[1]))
			shown++
		}
	}
}
