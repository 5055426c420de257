package flowgraph

import (
	"math"
	"testing"
)

// A class whose Off+Len overflows int still covers every byte from Off
// onward: it must select exactly what the in-range spelling selects.
func TestClassViewHugeLen(t *testing.T) {
	g := New()
	a := g.AddNode()
	g.AddEdge(Source, a, 24, Label{})
	g.AddEdge(a, Sink, 24, Label{})
	m := &SourceMap{
		Edge:     []int32{0},
		Contribs: [][]SourceContrib{{{Off: 0, Bits: 8}, {Off: 1, Bits: 8}, {Off: 2, Bits: 8}}},
	}
	want := m.ClassView(g, ByteRange{Off: 1, Len: 2})
	got := m.ClassView(g, ByteRange{Off: 1, Len: math.MaxInt})
	if got.Of(0, 24) != 16 || want.Of(0, 24) != 16 {
		t.Fatalf("class [1, MaxInt) keeps %d bits of the source edge, [1, 3) keeps %d; want 16 for both",
			got.Of(0, 24), want.Of(0, 24))
	}
	r := ByteRange{Off: 1, Len: math.MaxInt}
	if r.contains(0) || !r.contains(1) || !r.contains(math.MaxInt) {
		t.Fatal("ByteRange{1, MaxInt} must contain [1, MaxInt] and not 0")
	}
}
