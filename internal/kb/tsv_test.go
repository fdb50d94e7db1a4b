package kb

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestTSVRoundTrip(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestTSVFileRoundTrip(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	path := filepath.Join(t.TempDir(), "kb.tsv")
	if err := g.SaveTSV(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadTSV(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func assertGraphsEqual(t *testing.T, g, g2 *Graph) {
	t.Helper()
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() || g2.NumLabels() != g.NumLabels() {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			g2.NumNodes(), g2.NumEdges(), g2.NumLabels(),
			g.NumNodes(), g.NumEdges(), g.NumLabels())
	}
	for _, n := range g.Nodes() {
		id2 := g2.NodeByName(n.Name)
		if id2 == InvalidNode {
			t.Fatalf("node %q lost", n.Name)
		}
		if g2.Node(id2).Type != n.Type {
			t.Fatalf("node %q type %q vs %q", n.Name, g2.Node(id2).Type, n.Type)
		}
	}
	for _, e := range g.Edges() {
		f2 := g2.NodeByName(g.NodeName(e.From))
		t2 := g2.NodeByName(g.NodeName(e.To))
		l2 := g2.LabelByName(g.LabelName(e.Label))
		if !g2.HasEdge(f2, t2, l2) {
			t.Fatalf("edge %s-%s-%s lost", g.NodeName(e.From), g.LabelName(e.Label), g.NodeName(e.To))
		}
	}
}

func TestTSVParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"bad record type", "frob\tx\ty\n"},
		{"node arity", "node\tonlyname\n"},
		{"label arity", "label\tstarring\n"},
		{"label direction", "label\tstarring\tX\n"},
		{"edge arity", "label\tr\tD\nnode\ta\tt\nedge\ta\ta\n"},
		{"unknown from", "label\tr\tD\nnode\ta\tt\nedge\tghost\ta\tr\n"},
		{"unknown to", "label\tr\tD\nnode\ta\tt\nedge\ta\tghost\tr\n"},
		{"unknown label", "node\ta\tt\nnode\tb\tt\nedge\ta\tb\tghost\n"},
		{"self loop edge", "label\tr\tD\nnode\ta\tt\nedge\ta\ta\tr\n"},
	}
	for _, tc := range cases {
		if _, err := ReadTSV(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: parse succeeded", tc.name)
		}
	}
}

func TestTSVCommentsAndBlankLines(t *testing.T) {
	input := "# header\n\nnode\ta\tt\nnode\tb\tt\n# mid comment\nlabel\tr\tU\nedge\ta\tb\tr\n"
	g, err := ReadTSV(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.Frozen() {
		t.Error("ReadTSV must return a frozen graph")
	}
}

// randomGraph builds a pseudo-random graph from a seed for property
// tests.
func randomGraph(seed int64, nodes int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < nodes; i++ {
		typ := "t" + string(rune('a'+i%3))
		g.AddNode("node_"+string(rune('a'+i%26))+string(rune('0'+i/26%10)), typ)
	}
	labels := []LabelID{
		g.MustLabel("r_dir", true),
		g.MustLabel("r_undir", false),
		g.MustLabel("r_dir2", true),
	}
	edges := nodes * 2
	for i := 0; i < edges; i++ {
		from := NodeID(rng.Intn(nodes))
		to := NodeID(rng.Intn(nodes))
		if from == to {
			continue
		}
		g.AddEdge(from, to, labels[rng.Intn(len(labels))])
	}
	g.Freeze()
	return g
}

// TestQuickTSVRoundTrip property-checks that serialisation round-trips
// arbitrary graphs.
func TestQuickTSVRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		nodes := int(sz%20) + 2
		g := randomGraph(seed, nodes)
		var buf bytes.Buffer
		if err := g.WriteTSV(&buf); err != nil {
			return false
		}
		g2, err := ReadTSV(&buf)
		if err != nil {
			return false
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			f2 := g2.NodeByName(g.NodeName(e.From))
			t2 := g2.NodeByName(g.NodeName(e.To))
			l2 := g2.LabelByName(g.LabelName(e.Label))
			if !g2.HasEdge(f2, t2, l2) {
				return false
			}
		}
		return true
	}
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Fatalf("quick.Check seed %d: %v", quickSeed, err)
	}
}

// TestQuickWriteDeterministic property-checks that serialising the same
// graph twice yields byte-identical output.
func TestQuickWriteDeterministic(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		nodes := int(sz%20) + 2
		g := randomGraph(seed, nodes)
		var b1, b2 bytes.Buffer
		if g.WriteTSV(&b1) != nil || g.WriteTSV(&b2) != nil {
			return false
		}
		return bytes.Equal(b1.Bytes(), b2.Bytes())
	}
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Fatalf("quick.Check seed %d: %v", quickSeed, err)
	}
}
