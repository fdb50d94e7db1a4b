package kb

import (
	"testing"
)

func TestRemoveEdgeDirected(t *testing.T) {
	g, a, _, c, star, _ := buildTinyUnfrozen(t)
	// Wrong orientation: directed c→a cannot be removed as a→c.
	if ok, err := g.RemoveEdge(a, c, star); err != nil || ok {
		t.Fatalf("reverse orientation: removed=%v err=%v, want false nil", ok, err)
	}
	ok, err := g.RemoveEdge(c, a, star)
	if err != nil || !ok {
		t.Fatalf("removed=%v err=%v, want true nil", ok, err)
	}
	// Removing again is a no-op.
	if ok, err := g.RemoveEdge(c, a, star); err != nil || ok {
		t.Errorf("second removal: removed=%v err=%v, want false nil", ok, err)
	}
	g.Freeze()
	if g.HasEdge(c, a, star) {
		t.Error("edge still present after removal")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := len(g.NeighborsLabeled(c, star)); got != 1 {
		t.Errorf("c has %d starring half-edges, want 1", got)
	}
}

func TestRemoveEdgeUndirectedEitherOrientation(t *testing.T) {
	g, a, b, _, _, spouse := buildTinyUnfrozen(t)
	// The spouse edge was added as (a, b); removing as (b, a) must work.
	ok, err := g.RemoveEdge(b, a, spouse)
	if err != nil || !ok {
		t.Fatalf("removed=%v err=%v, want true nil", ok, err)
	}
	g.Freeze()
	if g.HasEdge(a, b, spouse) || g.HasEdge(b, a, spouse) {
		t.Error("undirected edge still present after removal")
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Errorf("degrees = %d/%d, want 1/1", g.Degree(a), g.Degree(b))
	}
}

func TestRemoveEdgeValidation(t *testing.T) {
	g, a, _, _, star, _ := buildTinyUnfrozen(t)
	if _, err := g.RemoveEdge(99, a, star); err == nil {
		t.Error("out-of-range from accepted")
	}
	if _, err := g.RemoveEdge(a, -1, star); err == nil {
		t.Error("out-of-range to accepted")
	}
	if _, err := g.RemoveEdge(a, a, 99); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestSetNodeType(t *testing.T) {
	g, a, _, _, _, _ := buildTinyUnfrozen(t)
	if err := g.SetNodeType(a, "director"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeType(99, "x"); err == nil {
		t.Error("out-of-range node accepted")
	}
	g.Freeze()
	if g.Node(a).Type != "director" {
		t.Errorf("type = %q, want director", g.Node(a).Type)
	}
	persons := g.NodesOfType("person")
	if len(persons) != 1 {
		t.Errorf("NodesOfType(person) = %v after retype, want 1 node", persons)
	}
	if len(g.NodesOfType("director")) != 1 {
		t.Error("type index missing retyped node")
	}
}

func TestFingerprintTracksContent(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	fp1 := g.Fingerprint()
	if fp1 == "" {
		t.Fatal("empty fingerprint")
	}

	// Identical build history hashes identically, and a building graph
	// hashes on the spot to what its frozen twin precomputed.
	g2, a, b, _, _, spouse := buildTinyUnfrozen(t)
	if g2.Fingerprint() != fp1 {
		t.Errorf("identical graphs hash %s vs %s", g2.Fingerprint(), fp1)
	}

	// Every mutation kind changes the hash — a label even before any
	// edge uses it, since labels are hashed content.
	seen := map[string]bool{fp1: true}
	step := func(what string) {
		t.Helper()
		fp := g2.Fingerprint()
		if seen[fp] {
			t.Errorf("fingerprint %s repeated after %s", fp, what)
		}
		seen[fp] = true
	}
	g2.MustLabel("directed_by", true)
	step("label registration")
	if _, err := g2.RemoveEdge(a, b, spouse); err != nil {
		t.Fatal(err)
	}
	step("edge removal")
	if err := g2.SetNodeType(a, "director"); err != nil {
		t.Fatal(err)
	}
	step("retype")
	building := g2.Fingerprint()
	g2.Freeze()
	if g2.Fingerprint() != building {
		t.Errorf("frozen fingerprint %s != building %s", g2.Fingerprint(), building)
	}
}
