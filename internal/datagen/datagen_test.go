package datagen

import (
	"context"
	"testing"

	"tuffy/internal/db"
	"tuffy/internal/grounding"
)

func ground(t *testing.T, ds *Dataset) *grounding.Result {
	t.Helper()
	d := db.Open(db.Config{})
	ts, err := grounding.BuildTables(d, ds.Prog, ds.Ev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := grounding.GroundBottomUp(context.Background(), ts, grounding.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExample1Shape(t *testing.T) {
	m := Example1(7)
	if m.NumAtoms != 14 || m.NumClauses() != 21 {
		t.Fatalf("atoms=%d clauses=%d", m.NumAtoms, m.NumClauses())
	}
	comps := m.Components(false)
	if len(comps) != 7 {
		t.Fatalf("components = %d", len(comps))
	}
	// The optimum of each component is X=Y=true with cost 1.
	s := m.NewState()
	for i := 1; i <= m.NumAtoms; i++ {
		s[i] = true
	}
	if got := m.Cost(s); got != 7 {
		t.Fatalf("all-true cost = %v, want 7", got)
	}
}

func TestExample2SingleComponentWithBridge(t *testing.T) {
	m := Example2(6)
	comps := m.Components(false)
	if len(comps) != 1 {
		t.Fatalf("Example2 should be one weakly connected component, got %d", len(comps))
	}
	if m.NumAtoms != 12 {
		t.Fatalf("atoms = %d", m.NumAtoms)
	}
}

func TestRCShape(t *testing.T) {
	ds := RC(RCConfig{Papers: 200, Authors: 100, Categories: 4, Clusters: 40, Seed: 1})
	st := ds.Table1Stats()
	if st.Relations != 4 {
		t.Fatalf("relations = %d", st.Relations)
	}
	if st.Rules != 5 {
		t.Fatalf("rules = %d", st.Rules)
	}
	if st.EvidenceTuples == 0 {
		t.Fatal("no evidence")
	}
	res := ground(t, ds)
	comps := res.MRF.Components(false)
	// The defining property of RC: many components (paper: 489).
	if len(comps) < 10 {
		t.Fatalf("RC should have many components, got %d", len(comps))
	}
	if res.MRF.NumAtoms == 0 || res.MRF.NumClauses() == 0 {
		t.Fatal("empty MRF")
	}
}

func TestIEShape(t *testing.T) {
	ds := IE(IEConfig{Chains: 300, Seed: 2})
	res := ground(t, ds)
	comps := res.MRF.Components(false)
	// Thousands of tiny components in the paper; here one per chain (minus
	// chains whose clauses were fully pruned).
	if len(comps) < 150 {
		t.Fatalf("IE should shatter into many small components, got %d", len(comps))
	}
	// Components are tiny cliques.
	for _, c := range comps {
		if c.Size() > 20 {
			t.Fatalf("IE component of size %d; should be tiny", c.Size())
		}
	}
}

func TestLPShape(t *testing.T) {
	ds := LP(LPConfig{Seed: 3})
	res := ground(t, ds)
	comps := res.MRF.Components(false)
	// LP is a single (or near-single) component per the paper's Table 1.
	if len(comps) > 3 {
		t.Fatalf("LP components = %d, want ~1", len(comps))
	}
	big := 0
	for _, c := range comps {
		if c.Size() > big {
			big = c.Size()
		}
	}
	if big < res.MRF.NumAtoms/2 {
		t.Fatalf("LP largest component %d of %d atoms", big, res.MRF.NumAtoms)
	}
}

func TestERShape(t *testing.T) {
	ds := ER(ERConfig{Records: 30, Groups: 8, Seed: 4})
	res := ground(t, ds)
	comps := res.MRF.Components(false)
	if len(comps) != 1 {
		t.Fatalf("ER components = %d, want 1 (dense)", len(comps))
	}
	// Transitivity makes clauses superlinear in atoms.
	if res.MRF.NumClauses() < res.MRF.NumAtoms {
		t.Fatalf("ER not dense: %d clauses for %d atoms", res.MRF.NumClauses(), res.MRF.NumAtoms)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RC(RCConfig{Papers: 50, Authors: 20, Clusters: 10, Seed: 9})
	b := RC(RCConfig{Papers: 50, Authors: 20, Clusters: 10, Seed: 9})
	if a.Ev.Total() != b.Ev.Total() {
		t.Fatalf("same seed, different evidence: %d vs %d", a.Ev.Total(), b.Ev.Total())
	}
	c := RC(RCConfig{Papers: 50, Authors: 20, Clusters: 10, Seed: 10})
	if a.Ev.Total() == c.Ev.Total() {
		// Counts could coincide; compare grounded clause counts too.
		ra := ground(t, a)
		rc := ground(t, c)
		if ra.Stats.NumClauses == rc.Stats.NumClauses && ra.Stats.NumUsedAtoms == rc.Stats.NumUsedAtoms {
			t.Log("different seeds produced identical shapes (unlikely but possible)")
		}
	}
}

func TestTable1StatsAllDatasets(t *testing.T) {
	for _, ds := range []*Dataset{
		LP(LPConfig{Seed: 1}),
		IE(IEConfig{Chains: 100, Seed: 1}),
		RC(RCConfig{Papers: 100, Clusters: 20, Seed: 1}),
		ER(ERConfig{Records: 20, Seed: 1}),
	} {
		st := ds.Table1Stats()
		if st.Relations == 0 || st.Rules == 0 || st.Entities == 0 || st.EvidenceTuples == 0 {
			t.Fatalf("%s stats incomplete: %+v", ds.Name, st)
		}
		if ds.Query.Empty() {
			t.Fatalf("%s has no query", ds.Name)
		}
	}
}
