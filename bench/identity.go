package main

import (
	"strconv"
)

// identity is one simulated client's attribution as the gate sees it.
type identity struct {
	FP      uint64
	IP      string
	Session string
}

// mix folds the parts into one well-scrambled 64-bit value (splitmix64
// finalizer per part). It is the harness's only source of identity bits, so
// the same (seed, parts) always yields the same identity.
func mix(seed uint64, parts ...uint64) uint64 {
	h := seed + 0x9e3779b97f4a7c15
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// stableID numbers a client that keeps one identity for the whole run;
// freshID numbers a single arrival that presents an identity nobody has
// seen before (the rotation + residential-proxy evasion). The two ranges
// are disjoint.
func stableID(class, client int) uint64 { return uint64(class)<<24 | uint64(client) }
func freshID(arrival int) uint64        { return 1<<40 | uint64(arrival) }

// identityFor derives the identity numbered n under seed. Addresses come
// from an odd-multiplier bijection on the low 32 bits of n, so identities
// of one range never share an address by accident: an accidental share
// would link two clients in the entity graph and turn a hash collision into
// a verdict.
func identityFor(seed, n uint64) identity {
	ip32 := uint32(n)*2654435761 + uint32(n>>32)*40503 + uint32(seed)*97
	return identity{
		FP:      mix(seed, n) | 1,
		IP:      ipv4(ip32),
		Session: "s" + strconv.FormatUint(mix(seed, n, 7), 16),
	}
}

func ipv4(v uint32) string {
	b := make([]byte, 0, 15)
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(v>>shift&0xff), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return string(b)
}
