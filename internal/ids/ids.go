// Package ids implements the logical identifier space of the DHT ring.
//
// The paper assumes a very large logical space (e.g. 160 bits) in which
// nodes take random IDs; an ordered set of node IDs partitions the space
// into zones, zone(x) = (ID(pred(x)), ID(x)]. SOMO additionally treats
// the space as the unit interval [0,1) in order to place logical tree
// nodes deterministically. This package provides both views over a
// 64-bit ring: full-width modular arithmetic for DHT routing and an
// exact mapping between ring IDs and dyadic fractions for SOMO.
//
// A 64-bit space keeps arithmetic allocation-free while remaining far
// larger than any simulated population; collisions are handled the same
// way a 160-bit deployment would handle them (IDs are required unique by
// the membership layer).
package ids

import (
	"fmt"
	"math/rand"
)

// ID is a point on the identifier ring [0, 2^64).
type ID uint64

// RingBits is the width of the identifier space in bits.
const RingBits = 64

// String renders the ID as fixed-width hexadecimal, the conventional
// notation for DHT identifiers.
func (id ID) String() string {
	return fmt.Sprintf("%016x", uint64(id))
}

// Random draws a uniformly distributed ID from r.
func Random(r *rand.Rand) ID {
	return ID(r.Uint64())
}

// Dist returns the clockwise distance from a to b, i.e. the amount that
// must be added to a (mod 2^64) to reach b. Dist(a, a) == 0.
func Dist(a, b ID) uint64 {
	return uint64(b - a)
}

// Between reports whether x lies in the half-open clockwise arc (a, b].
// This is the membership test for consistent-hashing zones: a key k is
// owned by node n iff Between(pred(n), n, k). When a == b the arc spans
// the whole ring, so every x is inside (a single-node ring owns all keys).
func Between(a, b, x ID) bool {
	if a == b {
		return true
	}
	return Dist(a, x) <= Dist(a, b) && x != a
}

// Add offsets an ID clockwise by d, wrapping around the ring.
func Add(a ID, d uint64) ID {
	return a + ID(d)
}

// Fraction converts an ID to its position in the unit interval [0, 1).
// SOMO places logical tree nodes at dyadic fractions of the total space;
// this is the bridge between the two views.
func (id ID) Fraction() float64 {
	return float64(uint64(id)) / (1 << 63) / 2
}

// FromFraction converts a position in [0, 1) to a ring ID. Values are
// clamped into [0, 1): negative inputs map to 0 and inputs >= 1 wrap as
// their fractional part would.
func FromFraction(f float64) ID {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		f -= float64(int(f))
	}
	// Multiply in two steps to keep precision for the top bits.
	hi := uint64(f * (1 << 32))
	rest := f*(1<<32) - float64(hi)
	lo := uint64(rest * (1 << 32))
	return ID(hi<<32 | lo)
}

// Zone is a half-open clockwise arc (Start, End] of the ring: the span
// of keys a node owns under consistent hashing.
type Zone struct {
	Start ID // exclusive: the predecessor's ID
	End   ID // inclusive: the owner's ID
}

// Contains reports whether key k falls inside the zone.
func (z Zone) Contains(k ID) bool {
	return Between(z.Start, z.End, k)
}

// String renders the zone as an interval.
func (z Zone) String() string {
	return fmt.Sprintf("(%s, %s]", z.Start, z.End)
}
