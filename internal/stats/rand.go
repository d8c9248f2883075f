package stats

import "math/rand"

// math/rand's default source is an additive lagged-Fibonacci register
// of rngLen words with tap rngTap; Seed fills it from the Lehmer
// generator x ← lehmerA·x mod int32max (see $GOROOT/src/math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lehmerA  = 48271
)

var (
	// lehmerPow[k] is lehmerA^k mod int32max. Seeding runs 20 warm-up
	// Lehmer steps and then three per register word, so word i draws on
	// powers 21+3i .. 23+3i.
	lehmerPow [21 + 3*rngLen]uint64
	// rngCooked is math/rand's unexported table of the same name, XORed
	// into every freshly seeded word.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for k := range lehmerPow {
		lehmerPow[k] = p
		p = p * lehmerA % int32max
	}

	// Recover rngCooked from seed 1's first rngLen outputs. Within
	// rngLen draws the feed index visits every word exactly once, so the
	// outputs are the register after those draws; undoing the draws
	// newest first (vec[feed] -= vec[tap]) yields the freshly seeded
	// register, and XOR-ing off seed 1's Lehmer part leaves rngCooked.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]uint64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap, feed = prev(tap), prev(feed)
		vec[feed] = src.Uint64()
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

func prev(i int) int {
	if i == 0 {
		return rngLen - 1
	}
	return i - 1
}

// lehmerWord is the Lehmer part of register word i seeded from x0: the
// three 31-bit outputs the seeding loop shifts into it.
func lehmerWord(x0 uint64, i int) uint64 {
	k := 21 + 3*i
	return (x0*lehmerPow[k]%int32max)<<40 ^ (x0*lehmerPow[k+1]%int32max)<<20 ^ x0*lehmerPow[k+2]%int32max
}

// lazySource is math/rand's default source with lazy seeding: Seed
// records the Lehmer start value and clears the computed bitmap, and a
// register word is computed in closed form the first time a draw
// touches it. A draw touches two words, so a short-lived stream pays for
// the handful it reads instead of all 607.
type lazySource struct {
	tap, feed int
	x0        uint64
	computed  [(rngLen + 63) / 64]uint64
	vec       [rngLen]uint64
}

// Seed maps the seed to the Lehmer start value exactly as math/rand
// does.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.computed = [len(s.computed)]uint64{}
}

// word returns register word i, computing it on first touch.
func (s *lazySource) word(i int) uint64 {
	if bit := uint64(1) << (i & 63); s.computed[i>>6]&bit == 0 {
		s.computed[i>>6] |= bit
		s.vec[i] = lehmerWord(s.x0, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

func (s *lazySource) Uint64() uint64 {
	s.tap, s.feed = prev(s.tap), prev(s.feed)
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// NewRand returns a generator that draws exactly the stream of
// rand.New(rand.NewSource(seed)), before and after (*rand.Rand).Seed,
// but seeds in O(1) and reseeds without allocating. It is the
// repository's one way to build a seeded generator: hold one per
// worker and Seed it per run rather than constructing one per run.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}
