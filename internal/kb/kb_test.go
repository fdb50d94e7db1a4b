package kb

import (
	"errors"
	"testing"
)

// buildTiny returns the frozen three-node graph most tests read from.
func buildTiny(t *testing.T) (*Graph, NodeID, NodeID, NodeID, LabelID, LabelID) {
	t.Helper()
	g, a, b, c, star, spouse := buildTinyUnfrozen(t)
	g.Freeze()
	return g, a, b, c, star, spouse
}

// buildTinyUnfrozen returns buildTiny's graph still building, for tests
// of the build-time mutators.
func buildTinyUnfrozen(t *testing.T) (*Graph, NodeID, NodeID, NodeID, LabelID, LabelID) {
	t.Helper()
	g := New()
	a := g.AddNode("a", "person")
	b := g.AddNode("b", "person")
	c := g.AddNode("c", "film")
	star := g.MustLabel("starring", true)
	spouse := g.MustLabel("spouse", false)
	g.MustAddEdge(c, a, star)
	g.MustAddEdge(c, b, star)
	g.MustAddEdge(a, b, spouse)
	return g, a, b, c, star, spouse
}

func TestAddNodeDeduplicates(t *testing.T) {
	g := New()
	a := g.AddNode("x", "person")
	b := g.AddNode("x", "film") // same name: returns existing, keeps type
	if a != b {
		t.Fatalf("AddNode returned %d then %d for the same name", a, b)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
	if g.Node(a).Type != "person" {
		t.Fatalf("type overwritten to %q", g.Node(a).Type)
	}
}

func TestLabelDirectednessConflict(t *testing.T) {
	g := New()
	if _, err := g.Label("starring", true); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if _, err := g.Label("starring", true); err != nil {
		t.Fatalf("consistent re-registration: %v", err)
	}
	if _, err := g.Label("starring", false); err == nil {
		t.Fatal("conflicting directedness accepted")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	l := g.MustLabel("rel", true)
	cases := []struct {
		name     string
		from, to NodeID
		label    LabelID
	}{
		{"from out of range", 99, b, l},
		{"to out of range", a, 99, l},
		{"negative from", -1, b, l},
		{"label out of range", a, b, 7},
		{"self loop", a, a, l},
	}
	for _, tc := range cases {
		if _, err := g.AddEdge(tc.from, tc.to, tc.label); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := New()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	d := g.MustLabel("directed", true)
	u := g.MustLabel("undirected", false)

	ins, err := g.AddEdge(a, b, d)
	if err != nil || !ins {
		t.Fatalf("first directed insert: ins=%v err=%v", ins, err)
	}
	ins, _ = g.AddEdge(a, b, d)
	if ins {
		t.Fatal("duplicate directed edge inserted")
	}
	// Opposite orientation of a directed label is a different edge.
	ins, _ = g.AddEdge(b, a, d)
	if !ins {
		t.Fatal("reverse directed edge rejected as duplicate")
	}
	// Undirected edges deduplicate in either orientation.
	ins, _ = g.AddEdge(a, b, u)
	if !ins {
		t.Fatal("first undirected insert rejected")
	}
	ins, _ = g.AddEdge(b, a, u)
	if ins {
		t.Fatal("reversed undirected duplicate inserted")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestHasEdgeOrientation(t *testing.T) {
	g, a, b, c, star, spouse := buildTiny(t)
	if !g.HasEdge(c, a, star) {
		t.Error("missing directed edge c→a")
	}
	if g.HasEdge(a, c, star) {
		t.Error("directed edge matched in reverse orientation")
	}
	if !g.HasEdge(a, b, spouse) || !g.HasEdge(b, a, spouse) {
		t.Error("undirected edge must match both orientations")
	}
	if g.HasEdge(a, c, spouse) {
		t.Error("nonexistent edge reported")
	}
	_ = b
}

func TestNeighborsAndDegree(t *testing.T) {
	g, a, b, c, star, spouse := buildTiny(t)
	if g.Degree(a) != 2 || g.Degree(b) != 2 || g.Degree(c) != 2 {
		t.Fatalf("degrees = %d,%d,%d want 2,2,2", g.Degree(a), g.Degree(b), g.Degree(c))
	}
	var sawStar, sawSpouse bool
	for _, he := range g.Neighbors(a) {
		switch {
		case he.Label == star && he.Dir == In && he.To == c:
			sawStar = true
		case he.Label == spouse && he.Dir == Undirected && he.To == b:
			sawSpouse = true
		}
	}
	if !sawStar || !sawSpouse {
		t.Errorf("half-edge views wrong: star=%v spouse=%v", sawStar, sawSpouse)
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges() returned %d, want 3", len(es))
	}
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.From > b.From || (a.From == b.From && a.To > b.To) {
			t.Fatalf("edges not sorted at %d: %v then %v", i, a, b)
		}
	}
}

func TestFreezeDeterminism(t *testing.T) {
	build := func() *Graph {
		g := New()
		names := []string{"n0", "n1", "n2", "n3", "n4"}
		for _, n := range names {
			g.AddNode(n, "t")
		}
		l := g.MustLabel("r", true)
		// Insert in a scrambled order.
		g.MustAddEdge(3, 1, l)
		g.MustAddEdge(0, 4, l)
		g.MustAddEdge(0, 2, l)
		g.MustAddEdge(0, 1, l)
		g.Freeze()
		return g
	}
	g1, g2 := build(), build()
	for id := NodeID(0); int(id) < g1.NumNodes(); id++ {
		n1, n2 := g1.Neighbors(id), g2.Neighbors(id)
		if len(n1) != len(n2) {
			t.Fatalf("node %d: neighbor counts differ", id)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("node %d: neighbor %d differs: %v vs %v", id, i, n1[i], n2[i])
			}
		}
	}
	if !g1.Frozen() {
		t.Error("graph not marked frozen")
	}
}

// TestFrozenRejectsMutation pins that Freeze is final for a plain
// frozen graph; TestOverlayFrozenRejectsMutation pins the same for an
// overlay generation.
func TestFrozenRejectsMutation(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	requireFrozenRejectsMutation(t, g)
}

// requireFrozenRejectsMutation checks that every error-returning
// mutator of the frozen graph g fails with ErrFrozen, AddNode of a new
// name panics with it, lookups of existing names and labels still
// answer, and the content fingerprint never moves.
func requireFrozenRejectsMutation(t *testing.T, g *Graph) {
	t.Helper()
	fp := g.Fingerprint()
	if got := g.AddNode(g.NodeName(1), "ignored"); got != 1 {
		t.Errorf("AddNode of existing name = %d, want 1", got)
	}
	if id, err := g.Label(g.LabelName(0), g.LabelDirected(0)); err != nil || id != 0 {
		t.Errorf("Label of existing name = (%d, %v), want (0, nil)", id, err)
	}
	if _, err := g.Label("brand_new", true); !errors.Is(err, ErrFrozen) {
		t.Errorf("Label of new name err = %v, want ErrFrozen", err)
	}
	if _, err := g.AddEdge(0, 1, 0); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddEdge err = %v, want ErrFrozen", err)
	}
	e := g.Edges()[0]
	if _, err := g.RemoveEdge(e.From, e.To, e.Label); !errors.Is(err, ErrFrozen) {
		t.Errorf("RemoveEdge err = %v, want ErrFrozen", err)
	}
	if err := g.SetNodeType(1, "robot"); !errors.Is(err, ErrFrozen) {
		t.Errorf("SetNodeType err = %v, want ErrFrozen", err)
	}
	func() {
		defer func() {
			if r := recover(); r != ErrFrozen {
				t.Errorf("AddNode of new name recovered %v, want ErrFrozen panic", r)
			}
		}()
		g.AddNode("brand_new", "person")
	}()
	if !g.Frozen() || g.Fingerprint() != fp {
		t.Errorf("frozen=%v fingerprint %s, want frozen and unchanged %s", g.Frozen(), g.Fingerprint(), fp)
	}
	if !g.HasEdge(e.From, e.To, e.Label) {
		t.Errorf("rejected RemoveEdge still removed %+v", e)
	}
}

func TestNodesOfType(t *testing.T) {
	g, a, b, c, _, _ := buildTiny(t)
	persons := g.NodesOfType("person")
	if len(persons) != 2 || persons[0] != a || persons[1] != b {
		t.Fatalf("persons = %v, want [%d %d]", persons, a, b)
	}
	films := g.NodesOfType("film")
	if len(films) != 1 || films[0] != c {
		t.Fatalf("films = %v", films)
	}
	if got := g.NodesOfType("nope"); got != nil {
		t.Fatalf("unknown type returned %v", got)
	}
}

func TestStats(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 3 || s.Labels != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDegree != 2 || s.AvgDegree != 2 {
		t.Fatalf("degree stats = %+v", s)
	}
}

func TestLookupsOnMissing(t *testing.T) {
	g := New()
	if g.NodeByName("ghost") != InvalidNode {
		t.Error("NodeByName on empty graph")
	}
	if g.LabelByName("ghost") != InvalidLabel {
		t.Error("LabelByName on empty graph")
	}
	if g.NodeName(-1) == "" || g.LabelName(-1) == "" {
		t.Error("placeholder names must be non-empty")
	}
}

func TestDirString(t *testing.T) {
	if Out.String() != "out" || In.String() != "in" || Undirected.String() != "undirected" {
		t.Error("Dir.String basics")
	}
	if Dir(9).String() == "" {
		t.Error("unknown Dir must render something")
	}
}
