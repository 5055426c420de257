package taint

import "flowcheck/internal/flowgraph"

// labelTable maps an edge label to its arena edge slot: the collapsed
// builder's §5.2 lookup, run once per emitted edge. The slot is the dense
// label id, so one table serves both edge merging and value-pair reuse.
//
// It is open-addressed with linear probing over the full Label and a fixed
// multiply-xorshift hash, which keeps Go's generic map hashing of the padded
// Label struct off the hot path. Entries carry a generation stamp and count
// as present only under the current generation, so reset empties the table
// in O(1) and keeps its storage: pooled trackers reset it on every run.
type labelTable struct {
	ents []labelEnt // len is a power of two; nil until the first lookup
	gen  uint32     // current generation; entries with another stamp are empty
	n    int        // entries of the current generation
}

type labelEnt struct {
	lbl  flowgraph.Label
	slot int32
	gen  uint32
}

const labelTableMin = 256

// hashLabel mixes every Label field. Ctx needs real mixing: address salting
// (markSecretRange, LeaveRegion) puts addresses in its high half, and
// context-sensitive labels fill all of it with a call-chain hash.
func hashLabel(l flowgraph.Label) uint64 {
	h := (uint64(l.Site)|uint64(l.Aux)<<32|uint64(l.Kind)<<40)*0x9e3779b97f4a7c15 ^ l.Ctx
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// lookup returns a pointer to l's slot and whether l was present. When it
// was not, l has been inserted and the caller must store its slot through
// the pointer before the next call.
func (t *labelTable) lookup(l flowgraph.Label) (slot *int32, found bool) {
	if 4*(t.n+1) > 3*len(t.ents) {
		t.grow()
	}
	mask := uint64(len(t.ents) - 1)
	for i := hashLabel(l) & mask; ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.gen != t.gen {
			*e = labelEnt{lbl: l, gen: t.gen}
			t.n++
			return &e.slot, false
		}
		if e.lbl == l {
			return &e.slot, true
		}
	}
}

// grow doubles the table (or allocates it) and reinserts the current
// generation's entries.
func (t *labelTable) grow() {
	old := t.ents
	size := 2 * len(old)
	if size < labelTableMin {
		size = labelTableMin
	}
	t.ents = make([]labelEnt, size)
	if t.gen == 0 {
		t.gen = 1 // zeroed entries read as empty
	}
	mask := uint64(size - 1)
	for _, e := range old {
		if e.gen != t.gen {
			continue
		}
		i := hashLabel(e.lbl) & mask
		for t.ents[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.ents[i] = e
	}
}

// reset empties the table, keeping its storage.
func (t *labelTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 { // wrapped: stale stamps could read as current
		clear(t.ents)
		t.gen = 1
	}
}
