// Package wire is the bounded reader the gossip codecs decode through:
// signal's FAS1 sketch state and cluster's FGS1 snapshot are both varint
// frames with length-prefixed strings, read from bytes a peer sent.
package wire

import "encoding/binary"

// Reader walks an encoded buffer with a sticky error: the first read that
// runs past the end of B, or meets a malformed varint, sets Err to the
// codec's truncation error, and every read after that returns the zero
// value without moving Off.
type Reader struct {
	B   []byte // the encoded buffer
	Off int    // the next unread byte of B
	Err error  // the first failure, nil while every read succeeded

	truncated error
}

// NewReader returns a reader over b positioned at off, reporting a
// truncated or malformed buffer as truncated.
func NewReader(b []byte, off int, truncated error) Reader {
	return Reader{B: b, Off: off, truncated: truncated}
}

// Left returns the number of unread bytes.
func (r *Reader) Left() int { return len(r.B) - r.Off }

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B[r.Off:])
	if n <= 0 {
		r.Err = r.truncated
		return 0
	}
	r.Off += n
	return v
}

// Varint reads one signed varint.
func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.B[r.Off:])
	if n <= 0 {
		r.Err = r.truncated
		return 0
	}
	r.Off += n
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.Err != nil {
		return 0
	}
	if r.Off >= len(r.B) {
		r.Err = r.truncated
		return 0
	}
	v := r.B[r.Off]
	r.Off++
	return v
}

// Count reads a collection or byte length, bounding it by the bytes left
// so corrupt input cannot force a huge allocation: every element costs at
// least one byte.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.Err != nil {
		return 0
	}
	if n > uint64(r.Left()) {
		r.Err = r.truncated
		return 0
	}
	return int(n)
}

// Str reads one length-prefixed string into a fresh copy.
func (r *Reader) Str() string {
	n := r.Count()
	if r.Err != nil {
		return ""
	}
	s := string(r.B[r.Off : r.Off+n])
	r.Off += n
	return s
}

// AppendString appends s with its length prefix, the form Str reads.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
