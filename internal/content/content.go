// Package content implements the content-addressed data layer TaskVine
// uses to keep transferable data uniquely identified and read-only: every
// object is named by the hash of its contents, so replicas on different
// workers are interchangeable and can be fetched from any peer without
// risking silent corruption (§2.2.2 of the paper).
//
// Objects carry both their actual bytes (what the real engine moves over
// connections) and a logical size (what the cost models and cache
// accounting charge). This lets the repository model multi-hundred-MB
// environment tarballs faithfully without materializing them.
package content

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Kind classifies an object for cache and unpack accounting.
type Kind int

const (
	// Blob is opaque data (arguments, results, serialized functions).
	Blob Kind = iota
	// Tarball is a packed software environment that must be unpacked
	// into a directory before use, charging unpack time and extra disk.
	Tarball
	// Dataset is shareable input data bound to a function context.
	Dataset
)

func (k Kind) String() string {
	switch k {
	case Blob:
		return "blob"
	case Tarball:
		return "tarball"
	case Dataset:
		return "dataset"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Object is an immutable, content-addressed piece of data.
type Object struct {
	// ID is the hex SHA-256 of the object's bytes.
	ID string
	// Name is a human-readable label (file name); not part of identity.
	Name string
	Kind Kind
	// Data is the object's actual bytes.
	Data []byte
	// LogicalSize is the size charged to caches and transfer models. It
	// defaults to len(Data) but may be larger for modeled artifacts
	// (e.g. a manifest standing in for a 572 MB tarball).
	LogicalSize int64
	// UnpackedSize is the additional disk consumed once a Tarball is
	// expanded (0 for other kinds).
	UnpackedSize int64
}

// HashBytes returns the content ID for a byte slice.
func HashBytes(b []byte) string {
	id := hashHex(b)
	return string(id[:])
}

// hashHex is the content ID of b, encoded on the stack.
func hashHex(b []byte) [2 * sha256.Size]byte {
	var id [2 * sha256.Size]byte
	sum := sha256.Sum256(b)
	hex.Encode(id[:], sum[:])
	return id
}

// NewBlob creates a blob object whose logical size is its actual size.
func NewBlob(name string, data []byte) *Object {
	return &Object{
		ID:          HashBytes(data),
		Name:        name,
		Kind:        Blob,
		Data:        data,
		LogicalSize: int64(len(data)),
	}
}

// NewDataset creates a dataset object with a modeled logical size (the
// data bytes act as a manifest or sample standing in for the real
// content).
func NewDataset(name string, data []byte, logicalSize int64) *Object {
	if logicalSize < int64(len(data)) {
		logicalSize = int64(len(data))
	}
	return &Object{
		ID:          HashBytes(data),
		Name:        name,
		Kind:        Dataset,
		Data:        data,
		LogicalSize: logicalSize,
	}
}

// NewTarball creates a packed-environment object with modeled packed and
// unpacked sizes.
func NewTarball(name string, data []byte, packedSize, unpackedSize int64) *Object {
	if packedSize < int64(len(data)) {
		packedSize = int64(len(data))
	}
	return &Object{
		ID:           HashBytes(data),
		Name:         name,
		Kind:         Tarball,
		Data:         data,
		LogicalSize:  packedSize,
		UnpackedSize: unpackedSize,
	}
}

// Validate checks that the object's ID matches its data. A match
// allocates nothing; only a mismatch formats the two IDs.
func (o *Object) Validate() error {
	if got := hashHex(o.Data); string(got[:]) != o.ID {
		return fmt.Errorf("content: object %q corrupt: id %s, data hashes to %s", o.Name, o.ID, string(got[:]))
	}
	return nil
}
