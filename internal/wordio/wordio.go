// Package wordio reads and writes the little-endian int64 word streams that
// every codec in this module shares (artifact, part, partition map, delta,
// and the oracle and routing sections inside an artifact), directly on byte
// slices: encoders append words to one pre-sized buffer, decoders read them
// in place, and neither side materializes a []int64 copy of the stream.
package wordio

import (
	"encoding/binary"
	"fmt"
)

// Append appends v to b as one little-endian word.
func Append(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

// FNV folds FNV-1a over b. Over a word stream's little-endian bytes it
// equals the word-wise fold the formats use as their integrity footer.
func FNV(b []byte) int64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int64(h)
}

// FromWords returns the little-endian bytes of a word slice.
func FromWords(words []int64) []byte {
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = Append(b, w)
	}
	return b
}

// ToWords returns the words of a little-endian byte stream; a trailing
// partial word is dropped.
func ToWords(b []byte) []int64 {
	w := make([]int64, len(b)/8)
	for i := range w {
		w[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return w
}

// Reader consumes a word stream in place with bounds checking. Errors are
// sticky: after the first failure Get returns 0 and Count 0, and Err holds
// the failure, so decoders can read a run of fields and check once.
type Reader struct {
	Buf []byte // the stream; a trailing partial word is never read
	Pos int    // index of the next word
	Err error  // first failure
	// Trunc is wrapped by overrun errors, so callers can match them with
	// errors.Is.
	Trunc error
}

// Len returns the number of whole words in the stream.
func (r *Reader) Len() int { return len(r.Buf) / 8 }

// Get reads the next word.
func (r *Reader) Get() int64 {
	if r.Err != nil {
		return 0
	}
	if r.Pos >= r.Len() {
		r.Err = fmt.Errorf("%w: offset %d", r.Trunc, r.Pos)
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.Buf[8*r.Pos:]))
	r.Pos++
	return v
}

// Count reads a length prefix and validates it against the remaining words
// (at wordsPerEntry words each), so corrupt prefixes cannot trigger huge
// allocations.
func (r *Reader) Count(wordsPerEntry int) int {
	n := r.Get()
	if r.Err != nil {
		return 0
	}
	if n < 0 || int64(wordsPerEntry)*n > int64(r.Len()-r.Pos) {
		r.Err = fmt.Errorf("%w: length %d at offset %d", r.Trunc, n, r.Pos)
		return 0
	}
	return int(n)
}

// Slice returns the next n words' bytes (aliasing the stream) and skips
// them; n must already be validated by Count.
func (r *Reader) Slice(n int) []byte {
	if r.Err != nil {
		return nil
	}
	s := r.Buf[8*r.Pos : 8*(r.Pos+n)]
	r.Pos += n
	return s
}
