package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// snapshotMagic opens every encoded Snapshot: "fleet gossip snapshot",
// format version 1. The payload is varint-packed like the signal.State
// FAS1 form it embeds: node id, then the rule log with every record
// length-prefixed (so a reader can skip records it cannot parse and a
// truncation is always detected at a record boundary), then the raw FAS1
// state bytes behind their own length prefix.
const snapshotMagic = "FGS1"

// maxWireRuleLen bounds one encoded rule record; corrupt gossip cannot
// force a huge allocation through a fabricated length prefix.
const maxWireRuleLen = 1 << 16

// EncodeSnapshot serializes the snapshot into the compact wire form
// DecodeSnapshot reads. Encoding is a pure function of the snapshot's
// logical content — the rule log already carries its canonical per-origin
// sequence order — so byte-identical encodings mean identical snapshots.
func EncodeSnapshot(s Snapshot) []byte {
	b := make([]byte, 0, 256+len(s.State))
	b = append(b, snapshotMagic...)
	b = binary.AppendUvarint(b, uint64(s.Node))
	b = binary.AppendUvarint(b, uint64(len(s.Rules)))
	var rec []byte
	for _, r := range s.Rules {
		rec = rec[:0]
		rec = binary.AppendUvarint(rec, uint64(r.Origin))
		rec = binary.AppendUvarint(rec, r.Seq)
		rec = binary.AppendUvarint(rec, uint64(len(r.Key)))
		rec = append(rec, r.Key...)
		rec = binary.AppendVarint(rec, r.At.UnixNano())
		b = binary.AppendUvarint(b, uint64(len(rec)))
		b = append(b, rec...)
	}
	b = binary.AppendUvarint(b, uint64(len(s.State)))
	b = append(b, s.State...)
	return b
}

// DecodeSnapshot parses an EncodeSnapshot-produced buffer. The reader is
// sticky-error and bounds-checked throughout: truncated or corrupt gossip
// yields an error, never a panic or an oversized allocation. The embedded
// state bytes are returned raw — receivers validate them separately with
// signal.DecodeRates, so one peer's corrupt state cannot poison the rule
// delta that travelled beside it.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	if len(b) < len(snapshotMagic) || string(b[:len(snapshotMagic)]) != snapshotMagic {
		return Snapshot{}, errors.New("cluster: bad snapshot magic")
	}
	r := &wireReader{b: b, off: len(snapshotMagic)}
	var s Snapshot
	s.Node = int(r.uvarint())
	nRules := r.count()
	if r.err != nil {
		return Snapshot{}, r.err
	}
	if nRules > 0 {
		s.Rules = make([]Rule, 0, nRules)
	}
	for range nRules {
		recLen := r.count()
		if r.err != nil {
			return Snapshot{}, r.err
		}
		if recLen > maxWireRuleLen {
			return Snapshot{}, fmt.Errorf("cluster: rule record of %d bytes exceeds limit", recLen)
		}
		end := r.off + recLen
		var rule Rule
		rule.Origin = int(r.uvarint())
		rule.Seq = r.uvarint()
		rule.Key = r.string()
		rule.At = time.Unix(0, r.varint()).UTC()
		if r.err != nil {
			return Snapshot{}, r.err
		}
		if r.off != end {
			return Snapshot{}, fmt.Errorf("cluster: rule record length %d does not match contents", recLen)
		}
		s.Rules = append(s.Rules, rule)
	}
	stateLen := r.count()
	if r.err != nil {
		return Snapshot{}, r.err
	}
	if stateLen > 0 {
		s.State = append([]byte(nil), r.b[r.off:r.off+stateLen]...)
		r.off += stateLen
	}
	if r.off != len(r.b) {
		return Snapshot{}, fmt.Errorf("cluster: %d trailing bytes after snapshot", len(r.b)-r.off)
	}
	return s, nil
}

// wireReader walks an encoded buffer with a sticky error, mirroring the
// signal package's state reader.
type wireReader struct {
	b   []byte
	off int
	err error
}

var errWireTruncated = errors.New("cluster: truncated snapshot")

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errWireTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errWireTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) string() string {
	n := r.count()
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// count reads a collection or byte length, bounding it by the bytes
// remaining so corrupt input cannot force huge allocations.
func (r *wireReader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = errWireTruncated
		return 0
	}
	return int(n)
}
