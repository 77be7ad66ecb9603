package bincode

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestReaderRules has one row per rule the package comment states: the
// reads a row makes, what it reports having seen wrong (empty when
// nothing), and the error Done must then wrap (empty for none).
func TestReaderRules(t *testing.T) {
	for _, c := range []struct {
		rule string
		in   []byte
		read func(r *Reader) string
		err  string
	}{
		{"errors stick: after a failure every read is zero", []byte{5, 'a', 0x01, 7}, func(r *Reader) string {
			if r.Bytes() != nil {
				return "a length past the end read bytes"
			}
			if r.Byte() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.Count(1) != 0 || r.Str() != "" || r.Rest() != nil || r.Enter(10) {
				return "a read after the failure returned a value"
			}
			return ""
		}, "truncated: length 5"},
		{"a varint is in its shortest form", []byte{0x80, 0x00}, func(r *Reader) string {
			r.Uvarint()
			return ""
		}, "shortest form"},
		{"a signed varint is in its shortest form", []byte{0x81, 0x80, 0x00}, func(r *Reader) string {
			r.Varint()
			return ""
		}, "shortest form"},
		{"a multi-byte varint ending in a non-zero byte is shortest", []byte{0x80, 0x01, 0x03}, func(r *Reader) string {
			if v, w := r.Uvarint(), r.Varint(); v != 128 || w != -2 {
				return "decoded the wrong values"
			}
			return ""
		}, ""},
		{"a varint fits in 64 bits", bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) string {
			r.Uvarint()
			return ""
		}, "overflows"},
		{"a count the bytes left cannot hold is refused", []byte{3, 1, 2, 3, 4, 5}, func(r *Reader) string {
			if r.Count(2) != 0 {
				return "granted three two-byte elements in five bytes"
			}
			return ""
		}, "truncated: count 3"},
		{"a count the bytes left hold is granted", []byte{2, 1, 2, 3, 4}, func(r *Reader) string {
			if r.Count(2) != 2 || r.Len() != 4 {
				return "refused two two-byte elements in four bytes"
			}
			r.Rest()
			return ""
		}, ""},
		{"a nest of counts stays within the input's length", []byte{5, 4, 0, 0, 0, 0}, func(r *Reader) string {
			if r.Count(1) != 5 {
				return "refused the outer count"
			}
			if r.Count(1) != 0 {
				return "granted nine elements in a six-byte input"
			}
			return ""
		}, "reserves more than the 6-byte input"},
		{"nesting stops at the caller's bound", nil, func(r *Reader) string {
			if !r.Enter(2) || !r.Enter(2) {
				return "refused a level within the bound"
			}
			r.Leave()
			if !r.Enter(2) {
				return "refused a level Leave gave back"
			}
			if r.Enter(2) {
				return "descended past the bound"
			}
			return ""
		}, "nested deeper than 2 levels"},
		{"Done refuses trailing bytes", []byte{1, 2, 3}, func(r *Reader) string {
			r.Byte()
			return ""
		}, "2 trailing bytes"},
		{"Rest is every byte left, aliasing the input", []byte{2, 'h', 'i', 'x', 'y'}, func(r *Reader) string {
			b := r.Bytes()
			rest := r.Rest()
			if string(b) != "hi" || string(rest) != "xy" || r.Rest() == nil || len(r.Rest()) != 0 {
				return "Bytes or Rest read the wrong bytes"
			}
			rest[0] = 'X'
			if r.b[3] != 'X' {
				return "Rest copied the input"
			}
			return ""
		}, ""},
	} {
		r := NewReader(c.in)
		if wrong := c.read(&r); wrong != "" {
			t.Errorf("%s: %s", c.rule, wrong)
		}
		err := r.Done()
		if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%s: Done() = %v, want %q", c.rule, err, c.err)
		}
	}
}

// TestWritersRoundTrip: what each writer appends, the matching read
// returns, and nothing is left over.
func TestWritersRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendString(b, "λ")
	b = AppendBytes(b, []byte{0, 0xFF})
	b = AppendUint64BE(b, 0x0102030405060708)
	b = AppendFloat64BE(b, -2.5)
	b = AppendFloat64LE(b, math.Inf(1))
	b = append(b, Flags(true, false, true))
	r := NewReader(b)
	if r.Uvarint() != math.MaxUint64 || r.Varint() != math.MinInt64 || r.Str() != "λ" || !bytes.Equal(r.Bytes(), []byte{0, 0xFF}) ||
		r.Uint64BE() != 0x0102030405060708 || r.Float64BE() != -2.5 || !math.IsInf(r.Float64LE(), 1) || r.Byte() != 0b101 {
		t.Errorf("a value did not read back as written from %x", b)
	}
	if err := r.Done(); err != nil {
		t.Error(err)
	}
	if got := AppendUint64BE(nil, 1); got[7] != 1 {
		t.Errorf("AppendUint64BE(1) = %x, want big-endian", got)
	}
	if got := AppendFloat64LE(nil, math.Float64frombits(1)); got[0] != 1 {
		t.Errorf("AppendFloat64LE = %x, want little-endian", got)
	}
}

// FuzzReader drives a script of reads, one per script byte, over
// arbitrary input. No read may panic; none after a failure may return
// anything but its zero value; Count never grants more elements than
// the bytes left hold at the size asked, nor in total more element
// bytes than the input has; Enter never descends past its bound.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 6, 7, 8, 10}, []byte{0x81, 0x01, 0x05, 'h', 'e', 'l', 'l', 'o', 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{8, 8, 8, 0x18, 9, 0x19, 0x29, 11}, []byte{4, 3, 2, 1, 0, 0})
	f.Add([]byte{1, 1}, []byte{0x80, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, script, data []byte) {
		r := NewReader(data)
		reserved, depth := 0, 0
		for i, op := range script {
			failed, left := r.Err() != nil, r.Len()
			arg := int(op >> 4)
			var got bool // the read returned something other than its zero value
			switch op % 12 {
			case 0:
				got = r.Byte() != 0
			case 1:
				got = r.Uvarint() != 0
			case 2:
				got = r.Varint() != 0
			case 3:
				got = r.Uint64BE() != 0
			case 4:
				got = math.Float64bits(r.Float64BE()) != 0
			case 5:
				got = math.Float64bits(r.Float64LE()) != 0
			case 6:
				got = r.Bytes() != nil
			case 7:
				got = r.Str() != ""
			case 8:
				size := arg + 1
				n := r.Count(size)
				if n*size > r.Len() {
					t.Fatalf("op %d: Count(%d) granted %d with %d bytes left", i, size, n, r.Len())
				}
				reserved += n * size
				got = n != 0
			case 9:
				if r.Enter(arg) {
					if depth++; depth > arg {
						t.Fatalf("op %d: Enter(%d) descended to level %d", i, arg, depth)
					}
					got = true
				}
			case 10:
				if depth > 0 {
					r.Leave()
					depth--
				}
			case 11:
				got = r.Rest() != nil
			}
			if failed && got {
				t.Fatalf("op %d (%d) returned a value after the reader failed: %v", i, op%12, r.Err())
			}
			if r.Len() > left {
				t.Fatalf("op %d moved the reader backwards", i)
			}
		}
		if reserved > len(data) {
			t.Fatalf("counts reserved %d element bytes of a %d-byte input", reserved, len(data))
		}
		if r.Done() == nil && r.Len() != 0 {
			t.Fatalf("Done accepted %d trailing bytes", r.Len())
		}
	})
}
