package mrf_test

import (
	"context"
	"testing"

	"tuffy/internal/mrf"
	"tuffy/internal/search"
)

func twoComponentNetwork(t *testing.T) (*mrf.MRF, []*mrf.Component) {
	t.Helper()
	m := mrf.New(5)
	for _, c := range []mrf.Clause{
		{Weight: 1, Lits: []mrf.Lit{1, 2}},
		{Weight: 0.5, Lits: []mrf.Lit{-2}},
		{Weight: 2, Lits: []mrf.Lit{3, -4}},
		{Weight: -1, Lits: []mrf.Lit{4, 5}},
	} {
		if err := m.AddClause(c.Weight, c.Lits...); err != nil {
			t.Fatal(err)
		}
	}
	comps := m.Components(false)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	return m, comps
}

// Who builds the shared index: a RunComponent miss does, once; a memo hit —
// which needs only the fingerprint — never does; and the public entry
// points, which may be handed a network that later changes, index
// privately and leave the MRF's own index alone.
func TestSharedIndexBuiltOnlyByComponentMisses(t *testing.T) {
	ctx := context.Background()
	m, comps := twoComponentNetwork(t)
	memo := search.NewComponentMemo(0)
	opts := search.ComponentOptions{Base: search.Options{MaxFlips: 500, Seed: 3}, Memo: memo}
	if _, err := search.ComponentAware(ctx, m, comps, opts); err != nil {
		t.Fatal(err)
	}
	for i, c := range comps {
		if !c.MRF.PostingsBuilt() {
			t.Fatalf("component %d searched without building its shared index", i)
		}
	}

	// The same content in fresh MRF objects: every component is a memo hit.
	_, again := twoComponentNetwork(t)
	h0 := memo.Stats().Hits
	if _, err := search.ComponentAware(ctx, m, again, opts); err != nil {
		t.Fatal(err)
	}
	if hits := memo.Stats().Hits - h0; hits != int64(len(again)) {
		t.Fatalf("%d memo hits, want %d", hits, len(again))
	}
	for i, c := range again {
		if c.MRF.PostingsBuilt() {
			t.Fatalf("memo hit on component %d built its postings", i)
		}
	}

	if m.PostingsBuilt() {
		t.Fatal("component-aware search indexed the parent network")
	}
	search.WalkSAT(ctx, m, search.Options{MaxFlips: 100, Seed: 1})
	if _, err := search.MCSAT(ctx, m, search.MCSATOptions{Samples: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := search.MCSATComponents(ctx, m, again, search.MCSATOptions{Samples: 5, Seed: 1}, 2); err != nil {
		t.Fatal(err)
	}
	if m.PostingsBuilt() || again[0].MRF.PostingsBuilt() {
		t.Fatal("a public WalkSAT/MC-SAT entry point built a shared index")
	}
}
