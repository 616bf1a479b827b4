package alm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"p2ppool/internal/topology"
)

// gridLatency places nodes on a line: latency = |a-b| * 10. Easy to
// reason about optimal shapes.
func gridLatency(a, b int) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d) * 10
}

func constDegree(d int) DegreeFunc { return func(int) int { return d } }

func TestProblemValidate(t *testing.T) {
	ok := Problem{Root: 0, Members: []int{1, 2}, Latency: gridLatency, Degree: constDegree(3)}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Problem{
		{Root: 0, Members: []int{1}, Latency: nil, Degree: constDegree(3)},
		{Root: 0, Members: []int{1, 1}, Latency: gridLatency, Degree: constDegree(3)},
		{Root: 0, Members: []int{0}, Latency: gridLatency, Degree: constDegree(3)},
		{Root: 0, Members: []int{1}, Latency: gridLatency, Degree: constDegree(0)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestTreeBasics(t *testing.T) {
	tr := NewTree(0)
	if err := tr.Attach(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(2, 0); err == nil {
		t.Error("re-attach should fail")
	}
	if err := tr.Attach(3, 99); err == nil {
		t.Error("attach to unknown parent should fail")
	}
	if tr.Size() != 3 {
		t.Errorf("size = %d", tr.Size())
	}
	if tr.Degree(0) != 1 || tr.Degree(1) != 2 || tr.Degree(2) != 1 {
		t.Errorf("degrees = %d,%d,%d", tr.Degree(0), tr.Degree(1), tr.Degree(2))
	}
	h := tr.Heights(gridLatency)
	if h[0] != 0 || h[1] != 10 || h[2] != 20 {
		t.Errorf("heights = %v", h)
	}
	if tr.MaxHeight(gridLatency) != 20 {
		t.Error("max height")
	}
	if err := tr.Validate(constDegree(2)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(constDegree(1)); err == nil {
		t.Error("degree validation should fail with bound 1")
	}
}

func TestTreeCloneIndependent(t *testing.T) {
	tr := NewTree(0)
	tr.Attach(1, 0)
	c := tr.Clone()
	c.Attach(2, 1)
	if tr.Contains(2) {
		t.Error("clone aliases original")
	}
}

func TestSubtree(t *testing.T) {
	tr := NewTree(0)
	tr.Attach(1, 0)
	tr.Attach(2, 1)
	tr.Attach(3, 1)
	tr.Attach(4, 0)
	sub := tr.Subtree(1)
	if len(sub) != 3 {
		t.Errorf("subtree = %v", sub)
	}
}

func TestAMCastOptimalOnLine(t *testing.T) {
	// On a line metric with unbounded degrees, the optimal max height
	// is the distance to the furthest member (50); greedy must achieve
	// it (any monotone chain along the line also achieves it).
	p := Problem{
		Root:    5,
		Members: []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 10},
		Latency: gridLatency,
		Degree:  constDegree(100),
	}
	tr, err := AMCast(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(p.Degree); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 11 {
		t.Errorf("size = %d, want 11", tr.Size())
	}
	if got := tr.MaxHeight(p.Latency); got != 50 {
		t.Errorf("max height = %v, want 50", got)
	}
}

func TestAMCastRespectsDegree(t *testing.T) {
	p := Problem{
		Root:    0,
		Members: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Latency: gridLatency,
		Degree:  constDegree(3),
	}
	tr, err := AMCast(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(p.Degree); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 13 {
		t.Errorf("tree size = %d, want 13 (spanning)", tr.Size())
	}
}

func TestAMCastInfeasible(t *testing.T) {
	// Degree 1 everywhere: root can take one child, that child none.
	p := Problem{
		Root:    0,
		Members: []int{1, 2, 3},
		Latency: gridLatency,
		Degree:  constDegree(1),
	}
	if _, err := AMCast(p); err == nil {
		t.Error("infeasible degree bounds should fail")
	}
}

func TestAMCastChainFeasible(t *testing.T) {
	// Degree 2 forces a chain.
	p := Problem{
		Root:    0,
		Members: []int{1, 2, 3, 4},
		Latency: gridLatency,
		Degree:  constDegree(2),
	}
	tr, err := AMCast(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(p.Degree); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 5 {
		t.Error("chain should span all members")
	}
}

// Property: over random instances AMCast yields valid spanning trees.
func TestAMCastPropertyValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(30)
		lat := randomMetric(n, r)
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = 2 + r.Intn(5)
		}
		members := make([]int, 0, n-1)
		for i := 1; i < n; i++ {
			members = append(members, i)
		}
		p := Problem{
			Root:    0,
			Members: members,
			Latency: func(a, b int) float64 { return lat[a][b] },
			Degree:  func(v int) int { return degrees[v] },
		}
		tr, err := AMCast(p)
		if err != nil {
			// Infeasible instances (too many degree-2 nodes) are fine.
			return true
		}
		if tr.Size() != n {
			return false
		}
		return tr.Validate(p.Degree) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomMetric builds a random symmetric latency matrix.
func randomMetric(n int, r *rand.Rand) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := 5 + r.Float64()*195
			m[i][j], m[j][i] = l, l
		}
	}
	return m
}

func TestAdjustNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(25)
		lat := randomMetric(n, r)
		latF := func(a, b int) float64 { return lat[a][b] }
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = 2 + r.Intn(4)
		}
		degF := func(v int) int { return degrees[v] }
		members := make([]int, 0, n-1)
		for i := 1; i < n; i++ {
			members = append(members, i)
		}
		p := Problem{Root: 0, Members: members, Latency: latF, Degree: degF}
		tr, err := AMCast(p)
		if err != nil {
			return true
		}
		before := tr.MaxHeight(latF)
		Adjust(tr, latF, degF)
		after := tr.MaxHeight(latF)
		if after > before+1e-9 {
			return false
		}
		return tr.Validate(degF) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAdjustImprovesBadTree(t *testing.T) {
	// Hand-build a bad chain where the far node hangs off the worst
	// parent; adjust must find the improvement.
	tr := NewTree(0)
	tr.Attach(5, 0)
	tr.Attach(1, 5) // 1 is adjacent to 0 but routed via 5: height 90
	lat := gridLatency
	deg := constDegree(3)
	before := tr.MaxHeight(lat)
	moves := Adjust(tr, lat, deg)
	if moves == 0 {
		t.Fatal("adjust found no move on an obviously bad tree")
	}
	if after := tr.MaxHeight(lat); after >= before {
		t.Fatalf("adjust did not improve: %v -> %v", before, after)
	}
	if err := tr.Validate(deg); err != nil {
		t.Fatal(err)
	}
}

func TestPlanWithHelpersUsesHelper(t *testing.T) {
	// Line topology: root 0 with degree 2 gets saturated; a helper at
	// position 1 (high degree) should be recruited to fan out.
	members := []int{2, 3, 4, 5, 6}
	degrees := map[int]int{0: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 1: 8}
	p := Problem{
		Root:    0,
		Members: members,
		Latency: gridLatency,
		Degree:  func(v int) int { return degrees[v] },
	}
	base, err := AMCast(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := PlanWithHelpers(p, HelperSet{Candidates: []int{1}, Radius: 1000, MinDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(p.Degree); err != nil {
		t.Fatal(err)
	}
	if !tr.Contains(1) {
		t.Fatal("helper 1 was not recruited")
	}
	if tr.MaxHeight(p.Latency) > base.MaxHeight(p.Latency) {
		t.Errorf("helper plan worse than base: %v > %v",
			tr.MaxHeight(p.Latency), base.MaxHeight(p.Latency))
	}
}

func TestPlanWithHelpersRadiusFiltersJunk(t *testing.T) {
	// The only candidate is far away; with a small radius it must be
	// rejected and the plan reduces to plain AMCast.
	members := []int{1, 2, 3, 4}
	degrees := map[int]int{0: 2, 1: 2, 2: 2, 3: 2, 4: 2, 100: 8}
	p := Problem{
		Root:    0,
		Members: members,
		Latency: gridLatency,
		Degree:  func(v int) int { return degrees[v] },
	}
	tr, err := PlanWithHelpers(p, HelperSet{Candidates: []int{100}, Radius: 50, MinDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Contains(100) {
		t.Error("far-away candidate should be filtered by radius")
	}
}

func TestPlanWithHelpersMinDegreeFilter(t *testing.T) {
	members := []int{2, 3, 4, 5}
	degrees := map[int]int{0: 2, 2: 2, 3: 2, 4: 2, 5: 2, 1: 2} // helper too weak
	p := Problem{
		Root:    0,
		Members: members,
		Latency: gridLatency,
		Degree:  func(v int) int { return degrees[v] },
	}
	tr, err := PlanWithHelpers(p, HelperSet{Candidates: []int{1}, Radius: 1000, MinDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Contains(1) {
		t.Error("low-degree candidate should be filtered")
	}
}

func TestImprovementMetric(t *testing.T) {
	if Improvement(100, 70) != 0.3 {
		t.Error("improvement arithmetic")
	}
	if Improvement(0, 10) != 0 {
		t.Error("zero base guards")
	}
}

func TestBoundImprovement(t *testing.T) {
	p := Problem{Root: 0, Members: []int{1, 5}, Latency: gridLatency, Degree: constDegree(2)}
	// Star height = max latency from root = 50; base 100 -> bound 0.5.
	if got := BoundImprovement(p, 100); got != 0.5 {
		t.Errorf("bound improvement = %v", got)
	}
}

// Integration: on the paper's transit-stub topology with its degree
// distribution, helpers must improve small groups and all algorithm
// invariants must hold.
func TestCriticalOnTransitStub(t *testing.T) {
	net, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	degrees := PaperDegrees(net.NumHosts(), r)
	degF := func(v int) int { return degrees[v] }

	groupSize := 20
	perm := r.Perm(net.NumHosts())
	root := perm[0]
	members := perm[1:groupSize]
	pool := make([]int, 0, net.NumHosts()-groupSize)
	for _, h := range perm[groupSize:] {
		pool = append(pool, h)
	}

	p := Problem{Root: root, Members: members, Latency: net.Latency, Degree: degF}
	base, err := AMCast(p)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := PlanWithHelpers(p, HelperSet{Candidates: pool, Radius: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := crit.Validate(degF); err != nil {
		t.Fatal(err)
	}
	hb := base.MaxHeight(net.Latency)
	hc := crit.MaxHeight(net.Latency)
	if hc > hb+1e-9 {
		t.Errorf("critical (%v) worse than AMCast (%v)", hc, hb)
	}
	// All members present in both trees.
	for _, m := range members {
		if !base.Contains(m) || !crit.Contains(m) {
			t.Fatalf("member %d missing from a tree", m)
		}
	}
}

func TestPaperDegreesDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := PaperDegrees(10000, r)
	counts := map[int]int{}
	for _, x := range d {
		if x < 2 || x > 9 {
			t.Fatalf("degree %d outside [2,9]", x)
		}
		counts[x]++
	}
	// Half the nodes should have degree 2 (2^-1).
	frac2 := float64(counts[2]) / 10000
	if frac2 < 0.45 || frac2 > 0.55 {
		t.Errorf("degree-2 fraction = %.3f, want ~0.5", frac2)
	}
	// Monotone decreasing population up to 8.
	for d := 3; d <= 8; d++ {
		if counts[d] > counts[d-1] {
			t.Errorf("degree %d count %d exceeds degree %d count %d", d, counts[d], d-1, counts[d-1])
		}
	}
}
