package wire

import (
	"errors"
	"testing"
)

var errShort = errors.New("test: truncated")

// TestReaderFailuresAreStickyAndZero holds each failure path both codecs
// reach only through their fuzz targets: the read that fails, and every
// read after it, sets the caller's error and returns zero values without
// moving past the bytes that did decode.
func TestReaderFailuresAreStickyAndZero(t *testing.T) {
	reads := map[string]func(r *Reader) any{
		"Uvarint": func(r *Reader) any { return r.Uvarint() },
		"Varint":  func(r *Reader) any { return r.Varint() },
		"Byte":    func(r *Reader) any { return r.Byte() },
		"Count":   func(r *Reader) any { return r.Count() },
		"Str":     func(r *Reader) any { return r.Str() },
	}
	zero := map[string]any{"Uvarint": uint64(0), "Varint": int64(0), "Byte": byte(0), "Count": 0, "Str": ""}
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	for _, tc := range []struct {
		name string
		b    []byte
		fail string // the read that must fail
		off  int    // where the reader stands after it
	}{
		{"length past end/Count", []byte{5, 'a', 'b'}, "Count", 1},
		{"length past end/Str", []byte{5, 'a', 'b'}, "Str", 1},
		{"varint over 10 bytes/Uvarint", overlong, "Uvarint", 0},
		{"varint over 10 bytes/Varint", overlong, "Varint", 0},
		{"varint over 10 bytes/Count", overlong, "Count", 0},
		{"empty/Byte", nil, "Byte", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.b, 0, errShort)
			if got := reads[tc.fail](&r); got != zero[tc.fail] {
				t.Errorf("%s = %#v, want %#v", tc.fail, got, zero[tc.fail])
			}
			if r.Err != errShort || r.Off != tc.off {
				t.Fatalf("after %s: Err %v Off %d, want %v at %d", tc.fail, r.Err, r.Off, errShort, tc.off)
			}
			// A read after an error: every kind, even one the bytes left
			// would satisfy, keeps the error and returns zero.
			for name, read := range reads {
				if got := read(&r); got != zero[name] {
					t.Errorf("%s after error = %#v, want %#v", name, got, zero[name])
				}
				if r.Err != errShort || r.Off != tc.off {
					t.Errorf("%s after error: Err %v Off %d, want %v at %d", name, r.Err, r.Off, errShort, tc.off)
				}
			}
		})
	}
}
