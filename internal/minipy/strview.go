package minipy

import "unsafe"

// BorrowStr returns a Str that shares b's memory instead of copying it.
// The caller vouches that b is never written again — the bytes of a
// content.Object, which are immutable from creation, are the intended
// source. The string keeps b's whole backing array reachable for as long
// as it lives, so borrow only what is worth pinning: callers apply a size
// floor to strings cut out of a larger buffer.
//
// This file is the only one in the module that imports unsafe
// (TestUnsafeHasOneHome); every view of object bytes is built here.
func BorrowStr(b []byte) Str {
	return Str(unsafe.String(unsafe.SliceData(b), len(b)))
}
