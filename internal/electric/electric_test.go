package electric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func weights(n int, edges [][2]int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for _, e := range edges {
		w[e[0]][e[1]]++
		w[e[1]][e[0]]++
	}
	return w
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSingleResistor(t *testing.T) {
	w := weights(2, [][2]int{{0, 1}})
	if c := Conductance(2, w, 0, 1); !almost(c, 1) {
		t.Fatalf("single unit resistor: %v, want 1", c)
	}
}

func TestParallelResistors(t *testing.T) {
	w := weights(2, [][2]int{{0, 1}, {0, 1}, {0, 1}})
	if c := Conductance(2, w, 0, 1); !almost(c, 3) {
		t.Fatalf("three parallel resistors: %v, want 3", c)
	}
}

func TestSeriesResistors(t *testing.T) {
	// 0-2-1: two in series → 0.5; 0-2-3-1: three in series → 1/3.
	if c := Conductance(3, weights(3, [][2]int{{0, 2}, {2, 1}}), 0, 1); !almost(c, 0.5) {
		t.Fatalf("two in series: %v, want 0.5", c)
	}
	if c := Conductance(4, weights(4, [][2]int{{0, 2}, {2, 3}, {3, 1}}), 0, 1); !almost(c, 1.0/3) {
		t.Fatalf("three in series: %v, want 1/3", c)
	}
}

func TestWheatstoneBalanced(t *testing.T) {
	// Balanced bridge: 0-2, 0-3, 2-1, 3-1, 2-3. The bridge resistor
	// carries no current; conductance is 1 (two series pairs in
	// parallel: 0.5 + 0.5).
	w := weights(4, [][2]int{{0, 2}, {0, 3}, {2, 1}, {3, 1}, {2, 3}})
	if c := Conductance(4, w, 0, 1); !almost(c, 1) {
		t.Fatalf("balanced wheatstone: %v, want 1", c)
	}
}

func TestParallelSeriesMix(t *testing.T) {
	// Direct edge plus a 2-hop detour: 1 + 0.5.
	w := weights(3, [][2]int{{0, 1}, {0, 2}, {2, 1}})
	if c := Conductance(3, w, 0, 1); !almost(c, 1.5) {
		t.Fatalf("direct+detour: %v, want 1.5", c)
	}
}

func TestDisconnected(t *testing.T) {
	w := weights(4, [][2]int{{0, 2}, {1, 3}})
	if c := Conductance(4, w, 0, 1); c != 0 {
		t.Fatalf("disconnected pair: %v, want 0", c)
	}
}

func TestDegenerateInputs(t *testing.T) {
	w := weights(2, [][2]int{{0, 1}})
	if Conductance(2, w, 0, 0) != 0 {
		t.Error("s == t must be 0")
	}
	if Conductance(2, w, -1, 1) != 0 || Conductance(2, w, 0, 5) != 0 {
		t.Error("out-of-range endpoints must be 0")
	}
}

// TestQuickParallelEdgeIncreasesConductance property-checks monotonicity:
// adding an edge anywhere never decreases s–t conductance (Rayleigh's
// monotonicity law).
func TestQuickRayleighMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		var edges [][2]int
		// Random connected-ish base: a path 0..n-1 plus noise.
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{i - 1, i})
		}
		for k := 0; k < rng.Intn(4); k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		before := Conductance(n, weights(n, edges), 0, 1)
		// Add one more random edge.
		for {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, [2]int{a, b})
				break
			}
		}
		after := Conductance(n, weights(n, edges), 0, 1)
		return after >= before-1e-9
	}
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Fatalf("quick.Check seed %d: %v", quickSeed, err)
	}
}

// TestQuickSymmetry property-checks that conductance is symmetric in its
// endpoints.
func TestQuickSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		var edges [][2]int
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{i - 1, i})
		}
		for k := 0; k < rng.Intn(5); k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		s, u := rng.Intn(n), rng.Intn(n)
		if s == u {
			return true
		}
		c1 := Conductance(n, weights(n, edges), s, u)
		c2 := Conductance(n, weights(n, edges), u, s)
		return math.Abs(c1-c2) < 1e-9
	}
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Fatalf("quick.Check seed %d: %v", quickSeed, err)
	}
}
