package minipy

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestStringPositionsMatchRunes: len and indexing agree with the []rune
// reference on every string — ASCII, mixed, and invalid UTF-8 alike —
// whichever path (bytes or runes) they take.
func TestStringPositionsMatchRunes(t *testing.T) {
	check := func(s string, i int) bool {
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
		return true
	}
	for _, s := range []string{"", "a", "12345678", "123456789", "héllo", "1234567é9", "\xff\xfeab", "ab\xc3", strings.Repeat("x", 100) + "✓"} {
		for i := 0; i <= len(s)+1; i++ {
			check(s, i)
		}
	}
	prop := func(s string, i uint8) bool { return check(s, int(i)%(len(s)+2)) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestASCIIIndexingDoesNotScaleWithTheString: s[0] and len(s) of a
// large ASCII string allocate nothing — they used to convert all of it
// to runes.
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
