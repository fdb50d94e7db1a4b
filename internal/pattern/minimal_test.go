package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rex/internal/kb"
)

// Patterns from the paper's figures, used as ground truth for the
// structural property predicates.

func TestEssentialityFigure5a(t *testing.T) {
	// Figure 5(a): start←star—v0→star→end plus v0→directed_by→v1. The
	// dangling director v1 (and its edge) is not on any start–end simple
	// path, so the pattern is not essential.
	g, star, _, dir := testSchema(t)
	p := MustNew(g, 4, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 2, V: 3, Label: dir},
	})
	if p.Essential() {
		t.Error("Figure 5(a) pattern reported essential")
	}
	if p.Minimal() {
		t.Error("Figure 5(a) pattern reported minimal")
	}
}

func TestDecomposabilityFigure5b(t *testing.T) {
	// Figure 5(b): a spouse edge between the targets PLUS a co-starring
	// wedge — decomposes into Figure 4(a) and 4(b).
	g, star, spouse, _ := testSchema(t)
	p := MustNew(g, 3, []Edge{
		{U: Start, V: End, Label: spouse},
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
	})
	if !p.Essential() {
		t.Error("Figure 5(b) pattern should be essential")
	}
	if !p.Decomposable() {
		t.Error("Figure 5(b) pattern should be decomposable")
	}
	if p.Minimal() {
		t.Error("Figure 5(b) pattern reported minimal")
	}
}

func TestFigure4PatternsMinimal(t *testing.T) {
	g, star, spouse, dir := testSchema(t)
	prod := g.MustLabel("produced_by", true)
	cases := []struct {
		name string
		p    *Pattern
	}{
		{"4(a) spouse", MustNew(g, 2, []Edge{
			{U: Start, V: End, Label: spouse},
		})},
		{"4(b) co-starring", MustNew(g, 3, []Edge{
			{U: 2, V: Start, Label: star},
			{U: 2, V: End, Label: star},
		})},
		{"4(c) co-starring+producing", MustNew(g, 3, []Edge{
			{U: 2, V: Start, Label: star},
			{U: 2, V: End, Label: star},
			{U: 2, V: Start, Label: prod},
		})},
		{"4(d) same director", MustNew(g, 5, []Edge{
			{U: 2, V: Start, Label: star},
			{U: 2, V: 3, Label: dir},
			{U: 4, V: 3, Label: dir},
			{U: 4, V: End, Label: star},
		})},
	}
	for _, tc := range cases {
		if !tc.p.Essential() {
			t.Errorf("%s: not essential", tc.name)
		}
		if tc.p.Decomposable() {
			t.Errorf("%s: decomposable", tc.name)
		}
		if !tc.p.Minimal() {
			t.Errorf("%s: not minimal", tc.name)
		}
	}
}

func TestTwoDisjointPathsDecomposable(t *testing.T) {
	// Two vertex-disjoint co-starring wedges decompose into each wedge.
	g, star, _, _ := testSchema(t)
	prod := g.MustLabel("produced_by", true)
	p := MustNew(g, 4, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 3, V: Start, Label: prod},
		{U: 3, V: End, Label: prod},
	})
	if !p.Essential() {
		t.Error("two disjoint wedges are essential")
	}
	if !p.Decomposable() {
		t.Error("two disjoint wedges must be decomposable")
	}
}

func TestSharedVariableNotDecomposable(t *testing.T) {
	// The same two wedges sharing the film variable: non-decomposable.
	g, star, _, _ := testSchema(t)
	prod := g.MustLabel("produced_by", true)
	p := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 2, V: Start, Label: prod},
		{U: 2, V: End, Label: prod},
	})
	if p.Decomposable() {
		t.Error("wedges sharing their variable reported decomposable")
	}
	if !p.Minimal() {
		t.Error("shared-variable double wedge should be minimal")
	}
}

func TestSingleEdgeNonDecomposable(t *testing.T) {
	g, _, spouse, _ := testSchema(t)
	p := MustNew(g, 2, []Edge{{U: Start, V: End, Label: spouse}})
	if p.Decomposable() {
		t.Error("single edge decomposable")
	}
	if !p.Minimal() {
		t.Error("single edge should be minimal")
	}
}

func TestDisconnectedEndNotEssential(t *testing.T) {
	// NaiveEnum intermediate: end variable isolated.
	g, star, _, _ := testSchema(t)
	p := MustNew(g, 3, []Edge{{U: 2, V: Start, Label: star}})
	if p.Essential() {
		t.Error("pattern with unreachable end reported essential")
	}
}

// TestQuickPathsAreMinimal property-checks that every simple path pattern
// between the targets is minimal.
func TestQuickPathsAreMinimal(t *testing.T) {
	g := kb.New()
	labels := []kb.LabelID{
		g.MustLabel("d1", true), g.MustLabel("d2", true), g.MustLabel("u1", false),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		length := 1 + rng.Intn(4)
		// Build a path start → v2 → v3 → ... → end with random labels
		// and orientations.
		var nodes []VarID
		nodes = append(nodes, Start)
		for i := 0; i < length-1; i++ {
			nodes = append(nodes, VarID(2+i))
		}
		nodes = append(nodes, End)
		var edges []Edge
		for i := 0; i < length; i++ {
			u, v := nodes[i], nodes[i+1]
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			edges = append(edges, Edge{U: u, V: v, Label: labels[rng.Intn(len(labels))]})
		}
		p, err := New(g, length+1, edges)
		if err != nil {
			return false
		}
		return p.IsPath() && p.Minimal()
	}
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Fatalf("quick.Check seed %d: %v", quickSeed, err)
	}
}

// TestQuickEssentialImpliesConnected property-checks a structural
// implication: essential patterns are connected and every variable lies
// on a start–end path, so in particular both targets are connected.
func TestQuickEssentialImpliesConnected(t *testing.T) {
	g := kb.New()
	labels := []kb.LabelID{g.MustLabel("d1", true), g.MustLabel("u1", false)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(g, labels, rng)
		if !p.Essential() {
			return true // nothing to check
		}
		return p.connected()
	}
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Fatalf("quick.Check seed %d: %v", quickSeed, err)
	}
}
