// Package bincode is the one reader and writer behind every binary
// format a peer can send: proto's frame bodies, poncho's environment
// manifest and pickle's values. Those bytes come from workers nobody
// checked, so the rules for reading them live here, once:
//
//   - Errors stick: the first failure leaves no bytes to read, and every
//     read after it returns its zero value, so a decoder reads all its
//     fields and checks the error once.
//   - A varint is in its shortest form, the only one the writers emit: a
//     multi-byte encoding that ends in a zero byte is refused.
//   - A length never reaches past the input, and a count is refused unless
//     the bytes left hold that many elements at the caller's minimum
//     element size. What a count grants is charged to a budget of the
//     input's length, so a nest of counts cannot reserve more than the
//     input could ever fill.
//   - Nesting stops at the caller's depth bound.
//   - A message is exactly its fields: Done refuses trailing bytes.
//
// Bytes and Rest alias the input; a value that outlives it is a copy.
package bincode

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader is a bounds-checked cursor over one message. It is a value: a
// decoder embeds or declares one without an allocation.
type Reader struct {
	b   []byte
	off int
	// budget is the element bytes Count may still reserve.
	budget int
	depth  int
	err    error
}

// NewReader returns a reader over b.
func NewReader(b []byte) Reader {
	return Reader{b: b, budget: len(b)}
}

// Err is the reader's first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless a failure is already recorded, and leaves no
// bytes to read: a decoder's own checks stick like the reader's.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

func (r *Reader) failf(format string, args ...any) {
	r.Fail(fmt.Errorf(format, args...))
}

// Len is the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) - r.off }

// truncated records that the input ended before a read did, unless the
// reader had already failed (and so has no bytes left).
func (r *Reader) truncated() {
	if r.err == nil {
		r.failf("truncated at offset %d of %d", r.off, len(r.b))
	}
}

// take returns the next n (≥ 1) bytes, or nil.
func (r *Reader) take(n int) []byte {
	if n > len(r.b)-r.off {
		r.truncated()
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off < len(r.b) {
		r.off++
		return r.b[r.off-1]
	}
	r.truncated()
	return 0
}

// Uvarint reads an unsigned varint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	// Most varints on the wire are lengths and counts under 128: one byte.
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.truncated()
	case n < 0:
		r.failf("varint overflows 64 bits at offset %d", r.off)
	case n > 1 && r.b[r.off+n-1] == 0:
		r.failf("varint not in its shortest form at offset %d", r.off)
	default:
		r.off += n
		return v
	}
	return 0
}

// Varint reads a signed (zig-zag) varint in its shortest form.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Uint64BE reads a fixed 64-bit big-endian value.
func (r *Reader) Uint64BE() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Float64BE reads a float64 as its big-endian IEEE 754 bits.
func (r *Reader) Float64BE() float64 {
	if p := r.take(8); p != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(p))
	}
	return 0
}

// Float64LE reads a float64 as its little-endian IEEE 754 bits.
func (r *Reader) Float64LE() float64 {
	if p := r.take(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Bytes reads a length-prefixed run of bytes, aliasing the input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.failf("truncated: length %d at offset %d runs past %d", n, r.off, len(r.b))
		return nil
	}
	p := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return p
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Count reads an element count, each element at least minSize (≥ 1)
// encoded bytes. It refuses a count the bytes left cannot hold, or one
// that would reserve more than the budget has left, so no count sizes an
// allocation on its own, nor does a nest of them.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	switch {
	case n > uint64(r.Len()/minSize):
		r.failf("truncated: count %d at offset %d needs more than %d bytes", n, r.off, r.Len())
		return 0
	case int(n)*minSize > r.budget:
		r.failf("count %d reserves more than the %d-byte input holds", n, len(r.b))
		return 0
	}
	r.budget -= int(n) * minSize
	return int(n)
}

// Enter descends one nesting level and reports whether the caller
// should read it: not past the caller's bound max, which fails the
// reader, nor after a failure. A true Enter is paired with a Leave.
func (r *Reader) Enter(max int) bool {
	switch {
	case r.err != nil:
		return false
	case r.depth >= max:
		r.failf("nested deeper than %d levels", max)
		return false
	}
	r.depth++
	return true
}

// Leave climbs back out of the level Enter descended into.
func (r *Reader) Leave() { r.depth-- }

// Rest reads every byte left, aliasing the input: a bulk payload.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	p := r.b[r.off:]
	r.off = len(r.b)
	return p
}

// Done reports the reader's failure, or bytes left after the last field.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.failf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a signed (zig-zag) varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends s with its uvarint length in front.
func AppendString(b []byte, s string) []byte { return append(AppendUvarint(b, uint64(len(s))), s...) }

// AppendBytes appends p with its uvarint length in front.
func AppendBytes(b, p []byte) []byte { return append(AppendUvarint(b, uint64(len(p))), p...) }

// AppendUint64BE appends v as fixed 64-bit big-endian.
func AppendUint64BE(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendFloat64BE appends f's IEEE 754 bits, big-endian.
func AppendFloat64BE(b []byte, f float64) []byte { return AppendUint64BE(b, math.Float64bits(f)) }

// AppendFloat64LE appends f's IEEE 754 bits, little-endian.
func AppendFloat64LE(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Flags packs bools into a flag byte, the first in bit 0.
func Flags(bits ...bool) byte {
	var flags byte
	for i, set := range bits {
		if set {
			flags |= 1 << i
		}
	}
	return flags
}
