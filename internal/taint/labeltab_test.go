package taint

import (
	"encoding/binary"
	"testing"

	"flowcheck/internal/flowgraph"
)

// collidingLabels returns n distinct labels whose hashes agree in their low
// bits, so in the smallest table they all start probing at the last entry
// and their chain wraps around to index 0. They differ only in Ctx, the
// way address-salted and context-sensitive labels do.
func collidingLabels(n int) []flowgraph.Label {
	const mask = labelTableMin - 1
	var out []flowgraph.Label
	for ctx := uint64(0); len(out) < n; ctx++ {
		l := flowgraph.Label{Site: 7, Aux: 1, Kind: flowgraph.KindInternal, Ctx: ctx << 32}
		if hashLabel(l)&mask == mask {
			out = append(out, l)
		}
	}
	return out
}

// FuzzLabelTable drives find/insert sequences through growth, generation
// resets and a generation-counter wrap, checking the table against a Go map.
func FuzzLabelTable(f *testing.F) {
	f.Add([]byte{2, 0, 5, 9, 0, 0, 3, 1, 2, 3, 4, 5, 3, 1, 2, 3, 4, 5})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 3, 8, 1, 0, 0, 0, 0, 3, 8, 2, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0})
	f.Add([]byte{2, 3, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 3, 1, 0, 0, 0, 3, 17, 4, 9, 9, 9})
	// Labels at generation 1, a plain reset, then a wrap back to generation
	// 1: the first run's stale entries must not resurface.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 3, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0})
	pool := collidingLabels(64)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab labelTable
		oracle := map[flowgraph.Label]int32{}
		next := int32(0)
		look := func(l flowgraph.Label) {
			p, found := tab.lookup(l)
			want, ok := oracle[l]
			if found != ok {
				t.Fatalf("lookup(%+v) found = %v, oracle %v", l, found, ok)
			}
			if found && *p != want {
				t.Fatalf("lookup(%+v) slot = %d, want %d", l, *p, want)
			}
			if !found {
				*p = next
				oracle[l] = next
				next++
			}
			if tab.n != len(oracle) {
				t.Fatalf("table holds %d labels, oracle %d", tab.n, len(oracle))
			}
		}
		for len(data) >= 6 {
			op, b := data[0], data[1:6]
			data = data[6:]
			switch op % 4 {
			case 0: // reset, sometimes through a generation-counter wrap
				if b[0]&1 == 1 {
					tab.gen = ^uint32(0)
				}
				tab.reset()
				clear(oracle)
			case 1: // a run of address-salted labels: enough to force growth
				base := uint64(binary.LittleEndian.Uint16(b[1:]))
				for i := uint64(0); i < uint64(b[0])+200; i++ {
					look(flowgraph.Label{Site: uint32(b[3] % 4), Kind: flowgraph.KindInput, Aux: 1, Ctx: (base + i) << 32})
				}
			case 2: // labels whose hashes collide in the low bits
				for i := 0; i <= int(b[1]%8); i++ {
					look(pool[(int(b[0])+i)%len(pool)])
				}
			default: // one label, context-free, salted or context-sensitive
				l := flowgraph.Label{Site: uint32(b[1] % 8), Aux: b[2] % 4, Kind: flowgraph.EdgeKind(b[0] % 7)}
				switch b[0] >> 6 {
				case 1:
					l.Ctx = uint64(binary.LittleEndian.Uint16(b[3:])) << 32
				case 2: // calling-context hash V' = 3V + callsite
					for _, pc := range b[3:] {
						l.Ctx = 3*l.Ctx + uint64(pc)
					}
				case 3:
					l.Ctx = uint64(b[3])<<56 | uint64(b[4])
				}
				look(l)
			}
		}
		for l, want := range oracle { // every label survives the growth it saw
			if p, found := tab.lookup(l); !found || *p != want {
				t.Fatalf("final lookup(%+v) = %v, want slot %d", l, found, want)
			}
		}
	})
}

// A reset table must not hand out the previous run's slots, and must not
// allocate: pooled trackers reset it on every run.
func TestLabelTableResetKeepsStorage(t *testing.T) {
	var tab labelTable
	for i := 0; i < 1000; i++ {
		p, _ := tab.lookup(flowgraph.Label{Site: uint32(i)})
		*p = int32(i)
	}
	size := len(tab.ents)
	allocs := testing.AllocsPerRun(10, func() {
		tab.reset()
		for i := 0; i < 1000; i++ {
			p, found := tab.lookup(flowgraph.Label{Site: uint32(i)})
			if found {
				t.Fatalf("label %d survived reset", i)
			}
			*p = int32(i)
		}
	})
	if allocs != 0 || len(tab.ents) != size {
		t.Fatalf("reset+refill: %.0f allocs, %d entries (was %d); want 0 allocs, same storage", allocs, len(tab.ents), size)
	}
}
