package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	cases := []struct {
		a, b ID
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 0, ^uint64(0)}, // all the way around
		{10, 3, ^uint64(0) - 6},
		{^ID(0), 0, 1}, // wrap across zero
		{1 << 63, 0, 1 << 63},
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); got != c.want {
			t.Errorf("Dist(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		a, b, x ID
		want    bool
	}{
		{10, 20, 15, true},
		{10, 20, 20, true},  // inclusive end
		{10, 20, 10, false}, // exclusive start
		{10, 20, 25, false},
		{20, 10, 25, true},  // wrapping arc
		{20, 10, 5, true},   // wrapping arc across zero
		{20, 10, 15, false}, // outside wrapping arc
		{7, 7, 123, true},   // whole-ring arc
		{7, 7, 7, true},     // single-node ring owns every key, incl. its own ID
	}
	for _, c := range cases {
		if got := Between(c.a, c.b, c.x); got != c.want {
			t.Errorf("Between(%v,%v,%v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

// Any key is in exactly one side of a two-point partition: for distinct
// a, b the arcs (a,b] and (b,a] tile the ring minus nothing — every x is
// in exactly one of them.
func TestBetweenPartition(t *testing.T) {
	f := func(a, b, x uint64) bool {
		ia, ib, ix := ID(a), ID(b), ID(x)
		if ia == ib {
			return true
		}
		in1 := Between(ia, ib, ix)
		in2 := Between(ib, ia, ix)
		return in1 != in2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionRoundTrip(t *testing.T) {
	cases := []float64{0, 0.25, 0.5, 0.75, 0.123456789, 0.999999}
	for _, f := range cases {
		id := FromFraction(f)
		got := id.Fraction()
		if diff := got - f; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("round trip %v -> %v -> %v", f, id, got)
		}
	}
}

func TestFromFractionEdges(t *testing.T) {
	if FromFraction(-0.5) != 0 {
		t.Error("negative fractions clamp to 0")
	}
	if FromFraction(0) != 0 {
		t.Error("FromFraction(0) should be 0")
	}
	if FromFraction(0.5) != 1<<63 {
		t.Errorf("FromFraction(0.5) = %v, want 2^63", FromFraction(0.5))
	}
	// 1.0 wraps to 0.
	if FromFraction(1.0) != 0 {
		t.Errorf("FromFraction(1.0) = %v, want 0", FromFraction(1.0))
	}
}

func TestFractionMonotone(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := ID(a), ID(b)
		if x < y {
			return x.Fraction() <= y.Fraction()
		}
		return x.Fraction() >= y.Fraction()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZoneContains(t *testing.T) {
	z := Zone{Start: 100, End: 200}
	if !z.Contains(150) || !z.Contains(200) {
		t.Error("zone should contain interior and end")
	}
	if z.Contains(100) || z.Contains(250) {
		t.Error("zone should exclude start and exterior")
	}
}

// Zones derived from a sorted set of node IDs tile the ring: every key
// belongs to exactly one zone.
func TestZonesTileRing(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(30)
		nodes := make([]ID, 0, n)
		seen := map[ID]bool{}
		for len(nodes) < n {
			id := Random(r)
			if !seen[id] {
				seen[id] = true
				nodes = append(nodes, id)
			}
		}
		// Sort ascending.
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				if nodes[j] < nodes[i] {
					nodes[i], nodes[j] = nodes[j], nodes[i]
				}
			}
		}
		zones := make([]Zone, n)
		for i := range nodes {
			pred := nodes[(i+n-1)%n]
			zones[i] = Zone{Start: pred, End: nodes[i]}
		}
		for probe := 0; probe < 200; probe++ {
			k := Random(r)
			count := 0
			for _, z := range zones {
				if z.Contains(k) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("key %v contained in %d zones, want exactly 1", k, count)
			}
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(7)))
	b := Random(rand.New(rand.NewSource(7)))
	if a != b {
		t.Error("Random should be deterministic for a fixed seed")
	}
}

func TestStringWidth(t *testing.T) {
	if s := ID(0xff).String(); s != "00000000000000ff" {
		t.Errorf("String = %q", s)
	}
	if s := (Zone{Start: 1, End: 2}).String(); s == "" {
		t.Error("zone string should be non-empty")
	}
}

func TestAdd(t *testing.T) {
	if Add(^ID(0), 1) != 0 {
		t.Error("Add should wrap")
	}
	if Add(5, 10) != 15 {
		t.Error("Add(5,10) != 15")
	}
}
