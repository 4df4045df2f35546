package search

import (
	"context"
	"math"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mrf"
)

// Two independent single-atom networks: component-factorized MC-SAT must
// reproduce each closed-form marginal.
func TestMCSATComponentsMatchesClosedForm(t *testing.T) {
	m := mrf.New(2)
	_ = m.AddClause(1, 1)  // Pr[a1] = 1/(1+e^-1)
	_ = m.AddClause(-1, 2) // Pr[a2] = e^-1/(1+e^-1)
	comps := m.Components(false)
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	probs, err := MCSATComponents(context.Background(), m, comps, MCSATOptions{Samples: 4000, BurnIn: 200, Seed: 77}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want1 := 1 / (1 + math.Exp(-1))
	want2 := math.Exp(-1) / (1 + math.Exp(-1))
	if math.Abs(probs[1]-want1) > 0.06 {
		t.Fatalf("Pr[a1] = %v, want ~%v", probs[1], want1)
	}
	if math.Abs(probs[2]-want2) > 0.06 {
		t.Fatalf("Pr[a2] = %v, want ~%v", probs[2], want2)
	}
}

// Factorized and monolithic MC-SAT must agree on a multi-component network
// (they sample the same distribution).
func TestMCSATComponentsAgreesWithMonolithic(t *testing.T) {
	m := mrf.New(4)
	_ = m.AddClause(1.5, 1, 2)
	_ = m.AddClause(1, -1)
	_ = m.AddClause(2, 3)
	_ = m.AddClause(0.5, -3, 4)
	comps := m.Components(false)
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	mono, err := MCSAT(context.Background(), m, MCSATOptions{Samples: 6000, BurnIn: 300, Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := MCSATComponents(context.Background(), m, comps, MCSATOptions{Samples: 6000, BurnIn: 300, Seed: 79}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a <= 4; a++ {
		if math.Abs(mono[a]-fact[a]) > 0.08 {
			t.Fatalf("atom %d: monolithic %v vs factorized %v", a, mono[a], fact[a])
		}
	}
}

func TestMCSATComponentsParallelDeterministicPerComponent(t *testing.T) {
	m := mrf.New(6)
	for i := 1; i <= 6; i++ {
		_ = m.AddClause(1, mrf.AtomID(i))
	}
	comps := m.Components(false)
	a, err := MCSATComponents(context.Background(), m, comps, MCSATOptions{Samples: 500, BurnIn: 50, Seed: 81}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MCSATComponents(context.Background(), m, comps, MCSATOptions{Samples: 500, BurnIn: 50, Seed: 81}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if a[i] != b[i] {
			t.Fatalf("atom %d: %v != %v across parallelism", i, a[i], b[i])
		}
	}
}

// BenchmarkMCSATComponents is one cache-miss marginal query over the
// rc-serve workload's decomposition (~200 components): component-factorized
// MC-SAT at the workload's 10 samples (burn-in 1, as the engine derives
// it), one worker, over the partitioning's parts as the engine samples them.
func BenchmarkMCSATComponents(b *testing.B) {
	ctx := context.Background()
	m, comps := rcComponents(b, datagen.RCConfig{Papers: 1200, Authors: 500, Categories: 8, Clusters: 200, Seed: 1})
	opts := MCSATOptions{Samples: 10, BurnIn: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		probs, err := MCSATComponents(ctx, m, comps, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = probs
	}
	b.ReportMetric(float64(len(comps)), "components/op")
}
