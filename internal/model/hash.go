package model

import (
	"encoding/binary"
	"math/bits"
)

// hash64 is the state fingerprint behind Hash and CanonicalHash: a
// multiply-fold hash (the wyhash/mum construction) that consumes eight
// bytes per round. Each round xors the next little-endian word into the
// running value, takes the full 128-bit product with an odd constant
// and folds the two halves together; a last round does the same with
// the 1-7 trailing bytes and the input length. It is unseeded and reads
// words with an explicit byte order, so a digest depends on the bytes
// alone — not on the run, the platform or the Go release — which is
// what keeps visited-table probe order and -stats output reproducible.
func hash64(b []byte) uint64 {
	n := uint64(len(b))
	h := uint64(hashK0)
	for len(b) >= 8 {
		h = fold(h^binary.LittleEndian.Uint64(b), hashK1)
		b = b[8:]
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * uint(i))
	}
	return fold(fold(h^tail, hashK2)^n, hashK1)
}

// The multiply-fold constants of hash64, shared with the key
// fingerprint (key.go), which runs the same rounds over piece hashes.
const hashK0, hashK1, hashK2 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3

func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
