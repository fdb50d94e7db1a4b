package kb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds a--b--d and a--c--d plus a direct a--d edge, all with an
// undirected label: 2 two-hop paths and 1 one-hop path between a and d.
func diamond(t *testing.T) (*Graph, NodeID, NodeID) {
	t.Helper()
	g := New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	c := g.AddNode("c", "t")
	d := g.AddNode("d", "t")
	l := g.MustLabel("r", false)
	g.MustAddEdge(a, b, l)
	g.MustAddEdge(b, d, l)
	g.MustAddEdge(a, c, l)
	g.MustAddEdge(c, d, l)
	g.MustAddEdge(a, d, l)
	g.Freeze()
	return g, a, d
}

func TestConnectednessCounts(t *testing.T) {
	g, a, d := diamond(t)
	// Simple paths a→d ignoring direction: the direct edge (length 1)
	// and the two two-hop routes a-b-d and a-c-d; b and c connect only
	// to a and d, so no longer simple path exists.
	cases := []struct {
		maxLen, want int
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 3},
		{4, 3},
	}
	for _, tc := range cases {
		if got := g.Connectedness(a, d, tc.maxLen, -1); got != tc.want {
			t.Errorf("Connectedness(maxLen=%d) = %d, want %d", tc.maxLen, got, tc.want)
		}
	}
}

func TestConnectednessParallelLabels(t *testing.T) {
	g := New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	l1 := g.MustLabel("r1", true)
	l2 := g.MustLabel("r2", false)
	g.MustAddEdge(a, b, l1)
	g.MustAddEdge(a, b, l2)
	g.Freeze()
	if got := g.Connectedness(a, b, 4, -1); got != 2 {
		t.Fatalf("parallel labels should count as 2 paths, got %d", got)
	}
}

func TestConnectednessCap(t *testing.T) {
	g, a, d := diamond(t)
	if got := g.Connectedness(a, d, 4, 2); got != 2 {
		t.Fatalf("capped count = %d, want 2", got)
	}
	if got := g.Connectedness(a, d, 4, 0); got != 0 {
		t.Fatalf("cap 0 should short-circuit, got %d", got)
	}
}

func TestConnectednessSamePair(t *testing.T) {
	g, a, _ := diamond(t)
	if got := g.Connectedness(a, a, 4, -1); got != 0 {
		t.Fatalf("same-node connectedness = %d", got)
	}
}

func TestBucketThresholds(t *testing.T) {
	cases := []struct {
		conn int
		want ConnBucket
	}{
		{0, ConnLow}, {30, ConnLow}, {31, ConnMedium},
		{100, ConnMedium}, {101, ConnHigh}, {5000, ConnHigh},
	}
	for _, tc := range cases {
		if got := Bucket(tc.conn); got != tc.want {
			t.Errorf("Bucket(%d) = %v, want %v", tc.conn, got, tc.want)
		}
	}
	if ConnLow.String() != "low" || ConnMedium.String() != "medium" || ConnHigh.String() != "high" {
		t.Error("bucket names")
	}
	if ConnBucket(9).String() != "unknown" {
		t.Error("unknown bucket name")
	}
}

func TestReachable(t *testing.T) {
	g := New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	c := g.AddNode("c", "t")
	iso := g.AddNode("iso", "t")
	l := g.MustLabel("r", true)
	g.MustAddEdge(a, b, l)
	g.MustAddEdge(b, c, l)
	g.Freeze()
	if !g.Reachable(a, c, 2) {
		t.Error("a should reach c in 2")
	}
	if g.Reachable(a, c, 1) {
		t.Error("a should not reach c in 1")
	}
	if !g.Reachable(c, a, 2) {
		t.Error("reachability ignores direction")
	}
	if g.Reachable(a, iso, 10) {
		t.Error("isolated node reachable")
	}
	if !g.Reachable(a, a, 0) {
		t.Error("node must reach itself")
	}
}

// TestQuickConnectednessSymmetric property-checks that the simple-path
// count is symmetric in its endpoints (edges are treated undirected).
func TestQuickConnectednessSymmetric(t *testing.T) {
	f := func(seed int64, sz, x, y uint8) bool {
		nodes := int(sz%12) + 3
		g := randomGraph(seed, nodes)
		a := NodeID(int(x) % nodes)
		b := NodeID(int(y) % nodes)
		return g.Connectedness(a, b, 4, -1) == g.Connectedness(b, a, 4, -1)
	}
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Fatalf("quick.Check seed %d: %v", quickSeed, err)
	}
}

// TestQuickConnectednessMonotoneInLength property-checks that raising the
// length limit never lowers the count.
func TestQuickConnectednessMonotoneInLength(t *testing.T) {
	f := func(seed int64, sz, x, y uint8) bool {
		nodes := int(sz%12) + 3
		g := randomGraph(seed, nodes)
		a := NodeID(int(x) % nodes)
		b := NodeID(int(y) % nodes)
		prev := 0
		for l := 1; l <= 4; l++ {
			cur := g.Connectedness(a, b, l, -1)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Fatalf("quick.Check seed %d: %v", quickSeed, err)
	}
}
