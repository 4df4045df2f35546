package valueset

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// checkValueSet compares s with the reference set, members and their
// neighbours, and checks the footprint invariants: at most two words per
// value held (plus one) and no more map entries than values.
func checkValueSet(t *testing.T, s *Set, ref map[int64]struct{}, step string) {
	t.Helper()
	if s.Len() != int64(len(ref)) {
		t.Fatalf("%s: count %d, reference %d", step, s.Len(), len(ref))
	}
	for v := range ref {
		for _, u := range []int64{v - 1, v, v + 1} {
			if _, want := ref[u]; s.Contains(u) != want {
				t.Fatalf("%s: Contains(%d) = %v, want %v", step, u, !want, want)
			}
		}
	}
	if w := int64(len(s.words)); w > 2*(s.n+1) {
		t.Fatalf("%s: %d words for %d values", step, w, s.n)
	}
	if int64(len(s.over)) > s.n {
		t.Fatalf("%s: %d overflow entries for %d values", step, len(s.over), s.n)
	}
	for v := range s.over {
		if _, ok := ref[v]; !ok {
			t.Fatalf("%s: overflow holds %d, never added", step, v)
		}
		if v >= 0 && v>>6 >= s.base && v>>6 < s.base+int64(len(s.words)) && s.words[v>>6-s.base]&(1<<(v&63)) != 0 {
			t.Fatalf("%s: %d held by both the bits and the map", step, v)
		}
	}
}

// TestValueSetMatchesMap adds random values of every kind the set treats
// differently and compares it with a map after each phase.
func TestValueSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		ref := make(map[int64]struct{})
		add := func(v int64) {
			s.Add(v)
			ref[v] = struct{}{}
		}
		// Values far above a one-word window land in the map...
		add(0)
		far := make([]int64, 0, 64)
		for i := 0; i < 64; i++ {
			v := int64(50_000 + rng.Intn(2_000))
			far = append(far, v)
			add(v)
		}
		checkValueSet(t, &s, ref, "far first")
		if len(s.over) == 0 {
			t.Fatalf("seed %d: far values went to the window", seed)
		}
		// ...until a dense ascending run grows the window over them; adding
		// them again must move them without counting them twice.
		for v := int64(0); v < 60_000; v++ {
			if rng.Intn(3) > 0 {
				add(v)
			}
			if rng.Intn(50) == 0 {
				add(far[rng.Intn(len(far))])
			}
		}
		checkValueSet(t, &s, ref, "dense run")
		for _, v := range far {
			add(v)
		}
		checkValueSet(t, &s, ref, "far again")
		for _, v := range far {
			if _, ok := s.over[v]; ok {
				t.Fatalf("seed %d: %d stayed in the map once the window covered it", seed, v)
			}
		}
		// Duplicates, negatives, values near both ends of int64 and sparse
		// values, interleaved.
		for i := 0; i < 20_000; i++ {
			var v int64
			switch rng.Intn(7) {
			case 0:
				v = -rng.Int63n(1_000)
			case 1:
				v = math.MaxInt64 - rng.Int63n(200)
			case 2:
				v = math.MinInt64 + rng.Int63n(200)
			case 3:
				v = rng.Int63()
			case 4:
				v = int64(rng.Intn(200_000)) // dense, partly past the window
			default:
				v = int64(rng.Intn(60_000)) // duplicates of the run
			}
			add(v)
		}
		checkValueSet(t, &s, ref, "mixed")
		// A descending run below the window's base moves it down.
		var d Set
		dref := make(map[int64]struct{})
		for v := int64(1 << 20); v >= 1<<19; v -= 1 + int64(rng.Intn(5)) {
			d.Add(v)
			dref[v] = struct{}{}
		}
		checkValueSet(t, &d, dref, "descending")
		if len(d.over) > 64 {
			t.Fatalf("seed %d: a dense descending run left %d values in the map", seed, len(d.over))
		}
	}
}

// TestValueSetMemoryBound: whatever the input, the heap a set holds is
// O(distinct values), a few bytes a value for dense ids.
func TestValueSetMemoryBound(t *testing.T) {
	const n = 50_000
	shapes := []struct {
		name    string
		value   func(i int, rng *rand.Rand) int64
		perItem uint64 // bytes per distinct value allowed
	}{
		{"dense", func(i int, _ *rand.Rand) int64 { return int64(i) }, 1},
		{"dense-offset", func(i int, _ *rand.Rand) int64 { return 1<<40 + int64(i) }, 1},
		{"stride-64", func(i int, _ *rand.Rand) int64 { return 64 * int64(i) }, 64},
		{"descending-stride-64", func(i int, _ *rand.Rand) int64 { return 64 * int64(n-i) }, 64},
		{"stride-1000", func(i int, _ *rand.Rand) int64 { return 1000 * int64(i) }, 64},
		{"random", func(_ int, rng *rand.Rand) int64 { return rng.Int63() - rng.Int63() }, 64},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(7))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := new(Set)
		for i := 0; i < n; i++ {
			s.Add(sh.value(i, rng))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if s.n != n {
			t.Fatalf("%s: count %d, want %d", sh.name, s.n, n)
		}
		if limit := int64(sh.perItem*n + 64<<10); held > limit {
			t.Errorf("%s: %d bytes held for %d values, limit %d", sh.name, held, n, limit)
		}
		runtime.KeepAlive(s)
	}
}
