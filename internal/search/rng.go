package search

import "math/rand"

// The search's random source. Component-aware search reseeds once per
// component run, partition visit and MC-SAT chain, so on networks of many
// small components the reseed dominates: math/rand's rngSource.Seed walks a
// chain of 1 841 dependent Park–Miller steps. source is the same additive
// lagged-Fibonacci register with the same output, so every search answer is
// unchanged, but its Seed computes each register word on its own from a
// table of powers of the Park–Miller multiplier.
//
// After Seed(s), math/rand's word i is
//
//	(x[21+3i] << 40) ^ (x[22+3i] << 20) ^ x[23+3i] ^ rngCooked[i]
//
// where x[k] = 48271^k · s mod (2³¹−1) and rngCooked is math/rand's fixed,
// unexported table. Both tables are built once per process.

const (
	rngLen     = 607
	rngTap     = 273
	rngMask    = 1<<63 - 1
	mersenne31 = 1<<31 - 1
	parkMiller = 48271
	// seedSkip is how many Park–Miller steps math/rand discards before it
	// packs the first register word.
	seedSkip = 20
)

var (
	// seedPow[i][j] = 48271^(seedSkip+1+3i+j) mod 2³¹−1: the multipliers of
	// the three Park–Miller outputs that Seed packs into register word i.
	seedPow [rngLen][3]uint64
	// rngCooked is math/rand's seeding table (see recoverCooked).
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k <= seedSkip; k++ {
		p = mulMod31(p, parkMiller)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			seedPow[i][j] = p
			p = mulMod31(p, parkMiller)
		}
	}
	recoverCooked()
}

// mulMod31 returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1) by Mersenne
// reduction: the product's high bits fold onto its low 31 with no division.
// Two folds leave a value of at most 2³¹−1, which is that modulus only when
// a·b is a multiple of it; 2³¹−1 is prime, so for these operands it never is.
func mulMod31(a, b uint64) uint64 {
	x := a * b
	x = x&mersenne31 + x>>31
	return x&mersenne31 + x>>31
}

// recoverCooked reads rngCooked back out of math/rand: it draws the first
// rngLen outputs of math/rand's source seeded with 1, runs the register's
// recurrence o[n] = o[n−607] + o[n−273] backwards to the seeded register,
// and XORs off the Park–Miller words that seed 1 packs into it.
func recoverCooked() {
	std := rand.NewSource(1).(rand.Source64)
	// o[n+rngLen-1] holds output n for n in 1-rngLen..rngLen: the seeded
	// register is outputs 1-rngLen..0, the drawn outputs 1..rngLen.
	var o [2 * rngLen]int64
	for n := 1; n <= rngLen; n++ {
		o[n+rngLen-1] = int64(std.Uint64())
	}
	for n := rngLen; n >= 1; n-- {
		o[n-1] = o[n+rngLen-1] - o[n-rngTap+rngLen-1]
	}
	// Output n <= 0 is the seeded word at index (rngLen-rngTap-n) mod rngLen.
	// rngCooked is still zero, so a source seeded with 1 holds the
	// Park–Miller words alone.
	var pm source
	pm.Seed(1)
	for n := 1 - rngLen; n <= 0; n++ {
		i := (rngLen - rngTap - n) % rngLen
		rngCooked[i] = o[n+rngLen-1] ^ pm.vec[i]
	}
}

// source is math/rand's rngSource with a constant-depth Seed. Its streams
// are math/rand's bit for bit (TestSourceMatchesMathRand).
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// newSource returns a source seeded with seed: the stream math/rand's
// NewSource(seed) yields.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed reduces seed as math/rand does and refills the register from it.
func (s *source) Seed(seed int64) {
	seed %= mersenne31
	if seed < 0 {
		seed += mersenne31
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed = 0, rngLen-rngTap
	// Each word depends on the seed alone, so the loop carries no
	// dependency chain.
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		s.vec[i] = int64(mulMod31(p[0], x)<<40^mulMod31(p[1], x)<<20^mulMod31(p[2], x)) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 steps the register once.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
