// Package valueset holds an exact set of int64 values that are mostly a
// dense non-negative run: the database's column statistics (the planner's
// V(R, c)) and the MLN front end's domain membership.
package valueset

// Set is an exact set of int64 values. The values the engine keeps — symbol
// ids, aids and truths — are dense non-negative runs, so they are kept as
// bits of a window of words (word i covers the values (base+i)·64 …
// (base+i)·64+63); any value outside the window sits in an overflow map. A value counts once
// whichever side holds it: adding one the map holds after the window has
// grown over it moves it to the bits.
//
// The window grows only while it spans at most one word per value held,
// counting the one being added, and allocates at most twice that, so the set
// takes O(distinct values) memory for any input: a sparse or negative column
// degrades to the map, never to a huge bitset. The zero Set is empty.
type Set struct {
	words []uint64
	base  int64 // word index of words[0]
	over  map[int64]struct{}
	n     int64 // distinct values held, bits and map together
}

// Len returns the number of distinct values added.
func (s *Set) Len() int64 { return s.n }

// Contains reports whether v was added.
func (s *Set) Contains(v int64) bool {
	if w := v >> 6; v >= 0 && w >= s.base && w < s.base+int64(len(s.words)) {
		if s.words[w-s.base]&(1<<(v&63)) != 0 {
			return true
		}
	}
	_, ok := s.over[v]
	return ok
}

// Add inserts v.
func (s *Set) Add(v int64) {
	if v >= 0 && s.cover(v>>6) {
		i, bit := v>>6-s.base, uint64(1)<<(v&63)
		if s.words[i]&bit != 0 {
			return
		}
		s.words[i] |= bit
		if _, ok := s.over[v]; ok {
			delete(s.over, v) // moved into the window, already counted
			return
		}
		s.n++
		return
	}
	if _, ok := s.over[v]; ok {
		return
	}
	if s.over == nil {
		s.over = make(map[int64]struct{})
	}
	s.over[v] = struct{}{}
	s.n++
}

// cover reports whether word w lies in the window, first growing the window
// over it when the result spans at most one word per value held (the value
// being added counted). A growth adds up to the window's length again on the
// side of w, within twice that budget, so a column filled in ascending or
// descending order copies each word O(1) times amortized.
func (s *Set) cover(w int64) bool {
	if len(s.words) == 0 {
		s.words, s.base = make([]uint64, 1), w
		return true
	}
	lo, hi := s.base, s.base+int64(len(s.words))
	if w >= lo && w < hi {
		return true
	}
	lo, hi = min(lo, w), max(hi, w+1)
	if hi-lo > s.n+1 {
		return false
	}
	grow := min(int64(len(s.words)), 2*(s.n+1)-(hi-lo))
	if w < s.base {
		lo = max(lo-grow, 0)
	} else {
		hi += grow
	}
	words := make([]uint64, hi-lo)
	copy(words[s.base-lo:], s.words)
	s.words, s.base = words, lo
	return true
}
