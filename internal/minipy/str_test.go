package minipy

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestStringPositionsMatchRunes: len, indexing and slicing agree with
// the []rune reference on every string — ASCII, mixed, and invalid
// UTF-8 alike — whichever path (bytes or runes) they take.
func TestStringPositionsMatchRunes(t *testing.T) {
	check := func(s string, i, j int) bool {
		runes := []rune(s)
		if runeLen(s) != len(runes) {
			t.Errorf("runeLen(%q) = %d, want %d", s, runeLen(s), len(runes))
			return false
		}
		for _, k := range []int{i, -i - 1} {
			want, wantOK := "", false
			if at := k; at >= -len(runes) && at < len(runes) {
				if at < 0 {
					at += len(runes)
				}
				want, wantOK = string(runes[at]), true
			}
			if got, ok := strIndex(s, k); got != want || ok != wantOK {
				t.Errorf("strIndex(%q, %d) = %q, %v; want %q, %v", s, k, got, ok, want, wantOK)
				return false
			}
		}
		lo, hi := clamp(i, 0, len(runes)), clamp(j, 0, len(runes))
		if hi < lo {
			hi = lo
		}
		got, err := strSlice(s, func(n int) (int, int, error) {
			if n != len(runes) {
				t.Errorf("strSlice(%q) resolved bounds against length %d, want %d", s, n, len(runes))
			}
			return lo, hi, nil
		})
		if err != nil || got != string(runes[lo:hi]) {
			t.Errorf("strSlice(%q, %d:%d) = %q, %v; want %q", s, lo, hi, got, err, string(runes[lo:hi]))
			return false
		}
		return true
	}
	for _, s := range []string{"", "a", "12345678", "123456789", "héllo", "1234567é9", "\xff\xfeab", "ab\xc3", strings.Repeat("x", 100) + "✓"} {
		for i := 0; i <= len(s)+1; i++ {
			check(s, i, i+3)
		}
	}
	prop := func(s string, i, j uint8) bool { return check(s, int(i)%(len(s)+2), int(j)%(len(s)+2)) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestASCIIIndexingDoesNotScaleWithTheString: s[0] and len(s) of a
// large ASCII string allocate nothing — they used to convert all of it
// to runes — and a slice allocates only its own bytes.
func TestASCIIIndexingDoesNotScaleWithTheString(t *testing.T) {
	s := strings.Repeat("abcdefgh", 32<<10)
	if n := testing.AllocsPerRun(10, func() {
		if ch, ok := strIndex(s, 0); !ok || ch != "a" {
			t.Fatalf("s[0] = %q, %v", ch, ok)
		}
		if ch, ok := strIndex(s, -1); !ok || ch != "h" {
			t.Fatalf("s[-1] = %q, %v", ch, ok)
		}
		if runeLen(s) != len(s) {
			t.Fatal("wrong length")
		}
	}); n != 0 {
		t.Errorf("indexing an ASCII string allocated %v times, want 0", n)
	}
	whole := func(n int) (int, int, error) { return 0, 16, nil }
	if n := testing.AllocsPerRun(10, func() {
		if out, _ := strSlice(s, whole); out != "abcdefghabcdefgh" {
			t.Fatalf("slice = %q", out)
		}
	}); n > 1 {
		t.Errorf("a 16-byte slice of an ASCII string allocated %v times, want 1", n)
	}
}

// TestBorrowStrSharesItsBytes: a borrowed string is the slice's memory,
// not a copy of it.
func TestBorrowStrSharesItsBytes(t *testing.T) {
	b := []byte(strings.Repeat("z", 1<<20))
	if n := testing.AllocsPerRun(10, func() {
		if s := BorrowStr(b); len(s) != len(b) || s[0] != 'z' {
			t.Fatal("wrong view")
		}
	}); n != 0 {
		t.Errorf("BorrowStr allocated %v times, want 0", n)
	}
	if BorrowStr(nil) != "" {
		t.Error("the view of no bytes is not the empty string")
	}
}
