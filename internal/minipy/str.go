package minipy

import (
	"strings"
	"unicode/utf8"
)

// String positions are rune positions, but the strings that matter for
// cost — megabytes of staged input — are ASCII, where rune i is byte i.
// The helpers below find that out a word at a time and fall back to
// runes for everything else.

const highBits = 0x8080808080808080

// asciiPrefix returns how many leading bytes of s are ASCII.
func asciiPrefix(s string) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8]
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		if w&highBits != 0 {
			break
		}
	}
	for i < len(s) && s[i] < utf8.RuneSelf {
		i++
	}
	return i
}

// runeLen is len(s) in runes.
func runeLen(s string) int {
	n := asciiPrefix(s)
	return n + utf8.RuneCountInString(s[n:])
}

// asciiChars holds every one-byte string: indexing an ASCII string
// returns a view of this table, which costs no allocation and keeps the
// indexed string — possibly a borrowed object — from being pinned by
// one character.
var asciiChars = func() string {
	b := make([]byte, utf8.RuneSelf)
	for i := range b {
		b[i] = byte(i)
	}
	return string(b)
}()

// strIndex returns the rune at position i of s (negative counts from
// the end); ok is false when i is out of range.
func strIndex(s string, i int) (ch string, ok bool) {
	if i >= 0 {
		if i >= len(s) {
			return "", false // no string has more runes than bytes
		}
		// Rune i is byte i when everything up to it is ASCII.
		if asciiPrefix(s[:i+1]) == i+1 {
			return asciiChars[s[i] : s[i]+1], true
		}
	} else if asciiPrefix(s) == len(s) {
		if i += len(s); i < 0 {
			return "", false
		}
		return asciiChars[s[i] : s[i]+1], true
	}
	runes := []rune(s)
	if i < 0 {
		i += len(runes)
	}
	if i < 0 || i >= len(runes) {
		return "", false
	}
	return string(runes[i]), true
}

// strSlice returns runes [lo, hi) of s, as bounds(n) resolves them
// against the rune length n. The result is a copy, never a view: a short
// slice must not pin a long (possibly borrowed) string.
func strSlice(s string, bounds func(n int) (lo, hi int, err error)) (string, error) {
	if asciiPrefix(s) == len(s) {
		lo, hi, err := bounds(len(s))
		if err != nil {
			return "", err
		}
		return strings.Clone(s[lo:hi]), nil
	}
	runes := []rune(s)
	lo, hi, err := bounds(len(runes))
	if err != nil {
		return "", err
	}
	return string(runes[lo:hi]), nil
}
