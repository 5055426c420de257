package flowgraph

import "sort"

// This file holds the multi-commodity view layer (paper §10.1): one shared
// graph built from a single all-secrets-marked execution, with per-class
// capacity overlays instead of per-class re-executions. Classes differ only
// in which Source edges carry capacity, so topology is executed and built
// once and each class is a cheap overlay + solve.

// ByteRange is a half-open range [Off, Off+Len) of secret-stream byte
// offsets, identifying one class of secret input.
type ByteRange struct {
	Off int
	Len int
}

func (r ByteRange) contains(off int) bool {
	return off >= r.Off && off-r.Off < r.Len
}

// SourceContrib records one secret-stream byte's contribution to a Source
// edge: Off is the byte's offset in the secret input stream and Bits the
// capacity it contributed. Off < 0 marks an unattributed contribution
// (memory marked secret with no stream position, e.g. the __secret
// builtin); such capacity belongs to every class view, which is both
// conservative and what the ranged analysis does — it marks builtin-secret
// memory regardless of the class ranging.
type SourceContrib struct {
	Off  int
	Bits int64
}

// SourceMap attributes the Source edges of a built graph to the
// secret-stream bytes that fed them. Edge[i] is an index into Graph.Edges
// (ascending); Contribs[i] lists that edge's contributions, whose Bits sum
// to the edge's capacity. Source edges absent from the map are treated as
// unattributed. A SourceMap is immutable once built and safe to share
// across concurrent ClassView calls.
type SourceMap struct {
	Edge     []int32
	Contribs [][]SourceContrib
}

// CapacityView overlays per-edge capacities on a shared graph/CSR without
// copying topology. Edge indices are ascending; edges not listed keep
// their base capacity. A nil view is the identity overlay.
type CapacityView struct {
	Edge []int32
	Cap  []int64
}

// Of returns the effective capacity of edge i given its base capacity.
func (v *CapacityView) Of(i int, base int64) int64 {
	if v == nil {
		return base
	}
	k := sort.Search(len(v.Edge), func(j int) bool { return v.Edge[j] >= int32(i) })
	if k < len(v.Edge) && v.Edge[k] == int32(i) {
		return v.Cap[k]
	}
	return base
}

// ClassView builds the capacity view selecting the class covering the
// given stream ranges: an attributed Source edge keeps only the capacity
// contributed by bytes inside the ranges (other classes' bytes are
// zeroed), while unattributed contributions and unmapped Source edges keep
// full capacity. Keeping the unattributed capacity is conservative — it
// can only raise the class bound — and matches the ranged analysis
// (taint.Options.SecretRanges), which marks builtin-secret memory for
// every class. The result
// lists only edges whose effective capacity differs from the base graph,
// in ascending edge order.
func (m *SourceMap) ClassView(g *Graph, ranges ...ByteRange) *CapacityView {
	v := &CapacityView{}
	for i, ei := range m.Edge {
		full := g.Edges[ei].Cap
		var in int64
		for _, c := range m.Contribs[i] {
			if c.Off < 0 {
				in += c.Bits
				continue
			}
			for _, r := range ranges {
				if r.contains(c.Off) {
					in += c.Bits
					break
				}
			}
		}
		if in > full {
			in = full
		}
		if in != full {
			v.Edge = append(v.Edge, ei)
			v.Cap = append(v.Cap, in)
		}
	}
	return v
}
