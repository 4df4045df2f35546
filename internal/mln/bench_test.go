package mln_test

import (
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mln"
)

// datasetText renders a dataset as the text the parser reads: predicate
// declarations, every typed domain declared explicitly, the clauses, and
// one evidence line per tuple.
func datasetText(ds *datagen.Dataset) (prog, evidence string) {
	var b strings.Builder
	for _, p := range ds.Prog.Preds {
		if p.Closed {
			b.WriteByte('*')
		}
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	for _, typ := range slices.Sorted(maps.Keys(ds.Prog.Domains)) {
		b.WriteString(typ + " = {")
		for j, c := range ds.Prog.Domains[typ].Sorted() {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ds.Prog.Syms.Name(c))
		}
		b.WriteString("}\n")
	}
	for _, c := range ds.Prog.Clauses {
		b.WriteString(c.Format(ds.Prog.Syms))
		b.WriteByte('\n')
	}
	prog = b.String()
	b.Reset()
	for _, p := range ds.Prog.Preds {
		ds.Ev.ForEach(p, func(args []int32, t mln.Truth) {
			if t == mln.False {
				b.WriteByte('!')
			}
			b.WriteString(mln.GroundAtom{Pred: p, Args: args}.Format(ds.Prog.Syms))
			b.WriteByte('\n')
		})
	}
	return prog, b.String()
}

// BenchmarkParse parses IE at benchmark size (6 000 chains) from text: the
// program with every domain declared, then the evidence. Beside allocs/op
// and B/op it reports what stays resident: the program's bytes per symbol
// (its symbol table, domains and clauses) and the evidence's bytes per
// tuple.
func BenchmarkParse(b *testing.B) {
	progText, evText := datasetText(datagen.IE(datagen.IEConfig{Chains: 6000, Seed: 1}))
	b.ReportAllocs()
	b.SetBytes(int64(len(progText) + len(evText)))
	b.ResetTimer()
	var perSymbol, perTuple float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := liveBytes()
		b.StartTimer()
		prog, err := mln.ParseProgramString(progText)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		mid := liveBytes()
		b.StartTimer()
		ev, err := mln.ParseEvidenceString(prog, evText)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		end := liveBytes()
		perSymbol = float64(mid-base) / float64(prog.Syms.Len())
		perTuple = float64(end-mid) / float64(ev.Total())
		runtime.KeepAlive(ev)
		b.StartTimer()
	}
	b.ReportMetric(perSymbol, "resident-B/symbol")
	b.ReportMetric(perTuple, "resident-B/tuple")
}
