package search

import (
	"math"
	"math/rand"
	"testing"
)

// source must yield rand.NewSource's stream bit for bit through every
// rand.Rand method the search draws with, for any seed — including the ones
// math/rand reduces specially (multiples of 2³¹−1 map to 89482311,
// negatives wrap) — and after a mid-stream reseed.
func TestSourceMatchesMathRand(t *testing.T) {
	const m31 = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 2, m31, -m31, 2 * m31, -2 * m31, 1000 * m31, m31 - 1, m31 + 1,
		89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		1 << 31, 1 << 40, -(1 << 62),
	}
	gen := rand.New(rand.NewSource(20261018))
	for i := 0; i < 240; i++ {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	const draws = 2400
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		for d := 0; d < draws; d++ {
			if d == draws/2 {
				// Reseed mid-stream through rand.Rand, as Scratch.seed does.
				want.Seed(seed ^ 0x5deece66d)
				got.Seed(seed ^ 0x5deece66d)
			}
			var w, g uint64
			switch d % 5 {
			case 0:
				w, g = uint64(want.Int63()), uint64(got.Int63())
			case 1:
				w, g = want.Uint64(), got.Uint64()
			case 2:
				w, g = math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
			case 3:
				n := 1 + d%97
				w, g = uint64(want.Intn(n)), uint64(got.Intn(n))
			case 4:
				n := int32(2 + d*7919%1_000_003)
				w, g = uint64(want.Int31n(n)), uint64(got.Int31n(n))
			}
			if w != g {
				t.Fatalf("seed %d, draw %d (kind %d): math/rand %#x, source %#x", seed, d, d%5, w, g)
			}
		}
	}
}

// BenchmarkSeed is one reseed of the search RNG: math/rand's rngSource
// against source, both through rand.Rand.Seed as Scratch.seed reseeds.
func BenchmarkSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"math-rand", rand.NewSource(1)},
		{"source", newSource(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(c.src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
			}
		})
	}
}
