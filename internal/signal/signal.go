// Package signal is the streaming signal-aggregation engine: the
// memory-bounded, concurrency-safe layer that turns raw event streams
// (requests, SMS sends, holds) into the aggregate signals the paper shows
// are the only ones that catch low-volume functional abuse.
//
// The paper's Airline D SMS-pumping attack was detected solely by a
// path-level rate signal (Table I: per-country surges up to +160,209%),
// and Case A's fingerprint rotation is visible only as a cardinality
// anomaly — one device print fanning out across many residential exit IPs.
// Neither signal lives in any single session, which is why the session
// detectors of Section III miss them; both fall out of cheap streaming
// aggregates over high-cardinality key spaces. This package provides those
// aggregates with O(1) memory per key (or sublinear memory overall) and
// lock-striped sharding so the live gate can compute them inline at
// request rate:
//
//   - Window: a sliding-window counter over a ring of sub-window buckets
//     (constant memory, no timestamp slices).
//   - Limiter: a sharded keyed sliding-window rate limiter built on
//     Window — the concurrent replacement for serialising every gate
//     decision behind one mutex over mitigate.KeyedLimiter.
//   - CountMin: a count-min sketch for per-key frequency estimation over
//     unbounded key spaces.
//   - Distinct: a HyperLogLog-style distinct counter (distinct IPs per
//     fingerprint → rotation detection; distinct destination countries →
//     the Table I footprint).
//   - TopK: space-saving heavy hitters per dimension.
//   - SurgeDetector: per-key rate ratios against a trailing baseline
//     period, reproducing Table I's percentage-surge columns online.
//   - Engine: the sharded composition of all of the above for one
//     dimension, safe for concurrent use.
//
// Everything reads time through explicit instants, so the same engine runs
// under simclock virtual time in experiments and under the wall clock in a
// deployment.
package signal

import (
	"time"
	"unsafe"
)

// hash64 is FNV-1a over the key bytes — the package's single hash
// function. Sketches derive per-row hashes from it (Kirsch–Mitzenmacher),
// shards take its low bits, and Distinct consumes it whole.
func hash64(key string) uint64 { return hash64Bytes(bytesOf(key)) }

// hash64Bytes is hash64 over a key assembled in a byte buffer, so hot
// paths can hash scratch-built keys without materialising a string.
func hash64Bytes(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// bytesOf is a read-only view of s's bytes, for the string entry points
// of byte-keyed bodies: the bodies hash, compare and copy the bytes and
// keep no reference to them.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// mix64 is the SplitMix64 finalizer, used to whiten hash64 outputs into
// independent-looking secondary hashes.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shardCount rounds n up to a power of two, defaulting when n <= 0.
func shardCount(n, def int) int {
	if n <= 0 {
		n = def
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// bucketIndex returns the absolute sub-window bucket number of t for the
// given bucket width.
func bucketIndex(t time.Time, width time.Duration) int64 {
	return t.UnixNano() / int64(width)
}
