package kb

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
	if !g2.Frozen() {
		t.Error("binary load must return a frozen graph")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := randomGraph(3, 15)
	path := filepath.Join(t.TempDir(), "kb.bin")
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryPreservesIDs(t *testing.T) {
	g := randomGraph(9, 12)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Declaration order is preserved, so IDs are stable — important for
	// tools that persist node IDs alongside the KB.
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		if g.Node(id).Name != g2.Node(id).Name {
			t.Fatalf("node %d renamed: %q vs %q", id, g.Node(id).Name, g2.Node(id).Name)
		}
	}
	for _, l := range g.Labels() {
		if g.LabelName(l) != g2.LabelName(l) || g.LabelDirected(l) != g2.LabelDirected(l) {
			t.Fatalf("label %d changed", l)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad magic", "NOTKB\x01"},
		{"truncated header", "REX"},
		{"truncated body", "REXKB\x01\x05"},
	}
	for _, tc := range cases {
		if _, err := ReadBinary(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestBinaryRejectsWrongVersion(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(binaryMagic)] = 99 // version byte
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("future version accepted")
	}
}

// TestQuickBinaryRoundTrip property-checks binary serialisation against
// random graphs, and that TSV and binary loads agree with each other.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		nodes := int(sz%20) + 2
		g := randomGraph(seed, nodes)
		var bin, tsv bytes.Buffer
		if g.WriteBinary(&bin) != nil || g.WriteTSV(&tsv) != nil {
			return false
		}
		gb, err := ReadBinary(&bin)
		if err != nil {
			return false
		}
		gt, err := ReadTSV(&tsv)
		if err != nil {
			return false
		}
		if gb.NumNodes() != gt.NumNodes() || gb.NumEdges() != gt.NumEdges() {
			return false
		}
		for _, e := range gb.Edges() {
			f2 := gt.NodeByName(gb.NodeName(e.From))
			t2 := gt.NodeByName(gb.NodeName(e.To))
			l2 := gt.LabelByName(gb.LabelName(e.Label))
			if !gt.HasEdge(f2, t2, l2) {
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

// TestBinaryCSRRoundTripFingerprint is the CSR-layout round-trip guard:
// the loaded graph must carry identical CSR arrays (checked via the
// public accessors) and its content fingerprint — recomputed from the
// loaded structure, not trusted from the file — must equal the
// original's.
func TestBinaryCSRRoundTripFingerprint(t *testing.T) {
	g := randomGraph(5, 40)
	g.Freeze()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Frozen() {
		t.Fatal("CSR load must return a frozen graph")
	}
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		a, b := g.Neighbors(id), g2.Neighbors(id)
		if len(a) != len(b) {
			t.Fatalf("node %d: degree %d vs %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d half-edge %d: %+v vs %+v", id, i, a[i], b[i])
			}
		}
		for _, l := range g.Labels() {
			la, lb := g.NeighborsLabeled(id, l), g2.NeighborsLabeled(id, l)
			if len(la) != len(lb) {
				t.Fatalf("node %d label %d: %d vs %d labeled half-edges", id, l, len(la), len(lb))
			}
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("node %d label %d entry %d differs", id, l, i)
				}
			}
		}
	}
	// The file carries the fingerprint; verify it against a from-scratch
	// recomputation over the loaded content so a corrupted-but-parsable
	// payload cannot masquerade as the original.
	if got := g2.fingerprint(); got != g.Fingerprint() {
		t.Errorf("recomputed fingerprint %s != original %s", got, g.Fingerprint())
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Errorf("served fingerprint %s != original %s", g2.Fingerprint(), g.Fingerprint())
	}
}

// TestBinaryCSRRejectsCorrupt feeds structurally broken payloads to
// the loader.
func TestBinaryCSRRejectsCorrupt(t *testing.T) {
	g := randomGraph(7, 12)
	g.Freeze()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := len(data) / 2; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		// A flip may be absorbed (e.g. inside the stored fingerprint
		// text) or rejected; it must never panic or hang, and a graph
		// that does load must be internally consistent enough to walk.
		if g2, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			for id := NodeID(0); int(id) < g2.NumNodes(); id++ {
				_ = g2.Neighbors(id)
			}
		}
	}
	// Truncations must always fail loudly.
	for _, cut := range []int{len(data) - 1, len(data) / 2, 8} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes loaded successfully", cut)
		}
	}
}
