package kb

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// hugeNodeCountStream is a 13-byte snapshot header claiming 2^40 nodes
// and no labels. A reader that preallocates from the claimed count
// runs out of memory before it reads the first node.
func hugeNodeCountStream() []byte {
	b := []byte(binaryMagic)
	b = binary.AppendUvarint(b, binaryVersion)
	b = binary.AppendUvarint(b, 0) // labels
	return binary.AppendUvarint(b, 1<<40)
}

// hugeDegreeStream is a 21-byte snapshot with one node, an edge count
// of 2^30-1 and a matching degree sum of 2^31-2. A reader that sizes
// the half-edge array from the degree sum asks for 24 GiB.
func hugeDegreeStream() []byte {
	b := []byte(binaryMagic)
	b = binary.AppendUvarint(b, binaryVersion)
	b = binary.AppendUvarint(b, 0) // labels
	b = binary.AppendUvarint(b, 1) // nodes
	b = binary.AppendUvarint(b, 1) // name length
	b = append(b, 'a')
	b = binary.AppendUvarint(b, 0) // type length
	b = binary.AppendUvarint(b, 1<<30-1)
	return binary.AppendUvarint(b, 1<<31-2)
}

// TestReadBinaryBoundsAllocations feeds the two streams whose claimed
// counts once made ReadBinary allocate without limit: both must fail
// with an error, not take the process down.
func TestReadBinaryBoundsAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		size int
	}{
		{"node count 2^40", hugeNodeCountStream(), 13},
		{"degree sum 2^31-2", hugeDegreeStream(), 21},
	} {
		if len(tc.in) != tc.size {
			t.Fatalf("%s: stream is %d bytes, want %d", tc.name, len(tc.in), tc.size)
		}
		if g, err := ReadBinary(bytes.NewReader(tc.in)); err == nil {
			t.Errorf("%s: loaded a graph with %d nodes", tc.name, g.NumNodes())
		}
	}
}

// FuzzReadBinary hardens the snapshot decoder: snapshots arrive from
// disk and from peers (replica catch-up), so no byte sequence may make
// ReadBinary panic or allocate without bound. A snapshot it accepts
// must survive a write/re-read round trip with its fingerprint, counts
// and edge list intact. The seed corpus lives in
// testdata/fuzz/FuzzReadBinary: a small valid snapshot, a truncated
// one, a legacy version-1 file and the two unbounded-allocation
// streams.
func FuzzReadBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			if g != nil {
				t.Fatal("non-nil graph returned alongside an error")
			}
			return
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-read of serialised graph failed: %v", err)
		}
		if g2.Fingerprint() != g.Fingerprint() || g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed content: (%s, %d, %d) -> (%s, %d, %d)",
				g.Fingerprint(), g.NumNodes(), g.NumEdges(), g2.Fingerprint(), g2.NumNodes(), g2.NumEdges())
		}
		if !reflect.DeepEqual(g2.Edges(), g.Edges()) {
			t.Fatal("round trip changed the edge list")
		}
	})
}
