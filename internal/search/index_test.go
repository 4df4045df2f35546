package search

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tuffy/internal/datagen"
	"tuffy/internal/mrf"
	"tuffy/internal/partition"
)

func rcComponents(t testing.TB, cfg datagen.RCConfig) (*mrf.MRF, []*mrf.Component) {
	t.Helper()
	m := groundDataset(t, datagen.RC(cfg))
	return m, partComponents(partition.Algorithm3(m, 0))
}

var rcTiny = datagen.RCConfig{Papers: 80, Authors: 30, Categories: 4, Clusters: 10, Seed: 5}

// The shared index plus a reused scratch must be invisible: RunComponent
// over one scratch, component after component (sizes differ, so every
// buffer is both grown and reused short), equals the public WalkSAT — which
// indexes privately into fresh state — under the derived options.
func TestRunComponentEqualsPrivatelyIndexedWalkSAT(t *testing.T) {
	ctx := context.Background()
	_, comps := rcComponents(t, rcTiny)
	var total int64
	for _, c := range comps {
		total += int64(c.Size())
	}
	base := Options{MaxFlips: 30_000, MaxTries: 2, Seed: 9}.withDefaults()
	var sc Scratch
	for pass := 0; pass < 2; pass++ { // second pass: index already built
		for idx, c := range comps {
			got := RunComponent(ctx, c, idx, total, base, nil, &sc)
			o := base
			o.MaxFlips = max(base.MaxFlips*int64(c.Size())/total, 1)
			o.Seed = base.Seed + int64(idx)*7919
			want := WalkSAT(ctx, c.MRF, o)
			if got.BestCost != want.BestCost || got.Flips != want.Flips || got.Restarts != want.Restarts ||
				!reflect.DeepEqual(got.Best, want.Best) {
				t.Fatalf("pass %d component %d: shared-index run (cost %v, %d flips) != private run (cost %v, %d flips)",
					pass, idx, got.BestCost, got.Flips, want.BestCost, want.Flips)
			}
		}
	}
}

// N queries hit a cold decomposition at once: the first misses race to
// build each component's index (sync.Once), everyone then flips against
// the same read-only postings with private scratch. Every answer must
// equal the same query run alone on an identical decomposition. Runs
// under -race in CI.
func TestConcurrentQueriesShareOneIndex(t *testing.T) {
	ctx := context.Background()
	m, comps := rcComponents(t, rcTiny)
	_, refComps := rcComponents(t, rcTiny)
	const queries = 8
	opts := func(q int, memo *ComponentMemo) ComponentOptions {
		return ComponentOptions{Base: Options{MaxFlips: 20_000, Seed: int64(100 + q)}, Parallelism: 1 + q%3, Memo: memo}
	}
	got := make([]*ComponentResult, queries)
	errs := make([]error, queries)
	memo := NewComponentMemo(0)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			got[q], errs[q] = ComponentAware(ctx, m, comps, opts(q, memo))
		}(q)
	}
	wg.Wait()
	refMemo := NewComponentMemo(0)
	for q := 0; q < queries; q++ {
		if errs[q] != nil {
			t.Fatal(errs[q])
		}
		want, err := ComponentAware(ctx, m, refComps, opts(q, refMemo))
		if err != nil {
			t.Fatal(err)
		}
		if got[q].BestCost != want.BestCost || got[q].Flips != want.Flips || !reflect.DeepEqual(got[q].Best, want.Best) {
			t.Fatalf("query %d: concurrent (cost %v, %d flips) != sequential (cost %v, %d flips)",
				q, got[q].BestCost, got[q].Flips, want.BestCost, want.Flips)
		}
	}
}

// The public WalkSAT takes networks it does not own: a caller may add
// clauses between two calls. The second call must see them — a stale index
// would leave the new clauses out of every flip's bookkeeping, so the
// reported cost would stop matching the state's real cost.
func TestPublicWalkSATNeverServesStaleIndex(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	addClauses := func(m *mrf.MRF, n int) {
		for i := 0; i < n; i++ {
			a, b := mrf.Lit(1+rng.Intn(m.NumAtoms)), mrf.Lit(1+rng.Intn(m.NumAtoms))
			if rng.Intn(2) == 0 {
				a = -a
			}
			if err := m.AddClause(float64(1+rng.Intn(5)), a, -b); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := mrf.New(30)
	addClauses(m, 60)
	o := Options{MaxFlips: 5000, Seed: 4}
	before := WalkSAT(ctx, m, o)
	if before.BestCost != m.Cost(before.Best) {
		t.Fatalf("reported cost %v, state costs %v", before.BestCost, m.Cost(before.Best))
	}
	addClauses(m, 120)
	after := WalkSAT(ctx, m, o)
	if after.BestCost != m.Cost(after.Best) {
		t.Fatalf("after mutation: reported cost %v, state costs %v", after.BestCost, m.Cost(after.Best))
	}
	fresh := mrf.New(m.NumAtoms)
	fresh.Clauses = append(fresh.Clauses, m.Clauses...)
	want := WalkSAT(ctx, fresh, o)
	if after.BestCost != want.BestCost || after.Flips != want.Flips || !reflect.DeepEqual(after.Best, want.Best) {
		t.Fatalf("mutated network searched as (cost %v, %d flips), a fresh copy as (cost %v, %d flips)",
			after.BestCost, after.Flips, want.BestCost, want.Flips)
	}
}

var benchSink any

// BenchmarkRunComponentWarm is one cache-miss MAP query's worth of
// component runs over an RC-shaped decomposition (the rc-serve workload's
// network, ~200 components) whose indexes are already built: what remains
// per component is seeding the RNG, the search, and the result.
func BenchmarkRunComponentWarm(b *testing.B) {
	ctx := context.Background()
	_, comps := rcComponents(b, datagen.RCConfig{Papers: 1200, Authors: 500, Categories: 8, Clusters: 200, Seed: 1})
	var total int64
	for _, c := range comps {
		total += int64(c.Size())
	}
	base := Options{MaxFlips: 100_000, Seed: 1}.withDefaults()
	query := func(seed int64) {
		base.Seed = seed
		var sc Scratch
		for idx, c := range comps {
			benchSink = RunComponent(ctx, c, idx, total, base, nil, &sc)
		}
	}
	query(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(int64(i + 1))
	}
	b.ReportMetric(float64(len(comps)), "components/op")
}

// BenchmarkSampleSAT is one MC-SAT chain step: index the round's clause
// subset into the chain's scratch and walk to a satisfying assignment.
func BenchmarkSampleSAT(b *testing.B) {
	ctx := context.Background()
	_, comps := rcComponents(b, rcTiny)
	big := comps[0]
	for _, c := range comps {
		if c.Size() > big.Size() {
			big = c
		}
	}
	sub := mrf.New(big.MRF.NumAtoms)
	for _, c := range big.MRF.Clauses {
		if c.Weight > 0 {
			sub.Clauses = append(sub.Clauses, mrf.Clause{Weight: 1, Lits: c.Lits})
		}
	}
	opts := MCSATOptions{SampleSATFlips: 10_000}
	rng := rand.New(rand.NewSource(1))
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = sampleSAT(ctx, sub, opts, rng, &sc)
	}
}
