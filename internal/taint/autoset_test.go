package taint

import (
	"encoding/binary"
	"slices"
	"testing"

	"flowcheck/internal/vm"
)

// autoOracle is the sorted-map record of undeclared writes the page bitmap
// replaced: an exact address set until it exceeds autoTrackLimit, then one
// covering range.
type autoOracle struct {
	set      map[vm.Word]bool
	overflow bool
	lo, hi   vm.Word
}

func (o *autoOracle) add(a vm.Word) {
	if o.overflow { // as the map-based record did, a+1 wraps at the top
		if a < o.lo {
			o.lo = a
		}
		if a >= o.hi {
			o.hi = a + 1
		}
		return
	}
	o.set[a] = true
	if len(o.set) > autoTrackLimit {
		o.lo, o.hi = o.bounds()
		o.overflow = true
	}
}

func (o *autoOracle) sorted() []vm.Word {
	var addrs []vm.Word
	for a := range o.set {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs
}

func (o *autoOracle) bounds() (lo, hi vm.Word) {
	if o.overflow {
		return o.lo, o.hi
	}
	addrs := o.sorted()
	if len(addrs) == 0 {
		return 0, 0
	}
	return addrs[0], addrs[len(addrs)-1] + 1
}

func (o *autoOracle) ranges() []vm.Range {
	if o.overflow {
		return []vm.Range{{Addr: o.lo, Len: o.hi - o.lo}}
	}
	var out []vm.Range
	for _, a := range o.sorted() {
		if n := len(out); n > 0 && out[n-1].Addr+out[n-1].Len == a {
			out[n-1].Len++
		} else {
			out = append(out, vm.Range{Addr: a, Len: 1})
		}
	}
	return out
}

// FuzzAutoSet checks add, ranges and bounds against the sorted-map oracle,
// across page boundaries and the autoTrackLimit overflow point.
func FuzzAutoSet(f *testing.F) {
	f.Add([]byte{}) // the empty set: no ranges, bounds (0, 0)
	// Runs of 4096 and 4097 distinct addresses: exactly at the limit, and
	// one past it.
	f.Add([]byte{1, 0x00, 0x10, 0x00, 0x10, 0})
	f.Add([]byte{1, 0x00, 0x10, 0x01, 0x10, 0})
	// Single writes straddling a page boundary, then a run across one.
	f.Add([]byte{0, 0xfe, 0x0f, 0, 0, 0, 0, 0xff, 0x0f, 0, 0, 0, 0, 0x00, 0x10, 0, 0, 0, 2, 0xf0, 0x1f, 0x40, 0, 0})
	// Scattered pages, out of order, then overflow by a long run.
	f.Add([]byte{0, 0, 0x80, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 1, 0, 0x20, 0xff, 0x0f, 0, 0, 9, 0, 0, 0, 0})
	// The top of the address space, before and after overflowing.
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0})
	f.Add([]byte{1, 0, 0x30, 0x01, 0x10, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 7, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s autoSet
		o := autoOracle{set: map[vm.Word]bool{}}
		for len(data) >= 6 {
			op := data[0]
			a := vm.Word(binary.LittleEndian.Uint32(data[1:]))
			k := int(binary.LittleEndian.Uint16(data[3:])) % (autoTrackLimit + 2)
			data = data[6:]
			switch op % 3 {
			case 0: // one byte
				s.add(a)
				o.add(a)
			case 1: // a run starting on a page (k up to autoTrackLimit+1)
				a &^= 1<<autoPageShift - 1
				for i := 0; i < k; i++ {
					s.add(a + vm.Word(i))
					o.add(a + vm.Word(i))
				}
			default: // a strided run crossing pages
				for i := 0; i < k%64; i++ {
					s.add(a + vm.Word(i*67))
					o.add(a + vm.Word(i*67))
				}
			}
			if s.overflow != o.overflow {
				t.Fatalf("overflow = %v, oracle %v", s.overflow, o.overflow)
			}
			if !s.overflow && s.n != len(o.set) {
				t.Fatalf("count = %d, oracle %d", s.n, len(o.set))
			}
		}
		lo, hi := s.bounds()
		if wlo, whi := o.bounds(); lo != wlo || hi != whi {
			t.Fatalf("bounds = [%#x, %#x), oracle [%#x, %#x)", lo, hi, wlo, whi)
		}
		prefix := []vm.Range{{Addr: 0, Len: 1}} // ranges must not extend it
		got, want := s.ranges(prefix)[1:], o.ranges()
		if !slices.Equal(got, want) {
			t.Fatalf("ranges = %v, oracle %v", got, want)
		}
	})
}

func TestAutoSetLimitBoundary(t *testing.T) {
	for _, n := range []int{autoTrackLimit, autoTrackLimit + 1} {
		var s autoSet
		for i := 0; i < n; i++ {
			s.add(vm.Word(0x10000 + 2*i)) // every other byte: n ranges
		}
		rs := s.ranges(nil)
		if over := n > autoTrackLimit; s.overflow != over {
			t.Fatalf("%d addresses: overflow = %v, want %v", n, s.overflow, over)
		}
		if s.overflow {
			want := vm.Range{Addr: 0x10000, Len: vm.Word(2*n - 1)}
			if len(rs) != 1 || rs[0] != want || s.pages != nil {
				t.Fatalf("overflowed ranges = %v (pages kept: %v), want [%v]", rs, s.pages != nil, want)
			}
		} else if len(rs) != n {
			t.Fatalf("%d addresses: %d ranges, want %d", n, len(rs), n)
		}
	}
}

// classify must agree with the per-byte declared scan on every write,
// including writes straddling range edges and wrapping the address space.
func TestRegionClassifyMatchesPerByte(t *testing.T) {
	r := &regionState{declared: []vm.Range{
		{Addr: 100, Len: 10}, {Addr: 120, Len: 1}, {Addr: 0xfffffff0, Len: 0x20}, {Addr: 200, Len: 0},
	}}
	for _, addr := range []vm.Word{0, 95, 99, 100, 105, 108, 109, 110, 117, 119, 120, 121, 199, 200, 0xffffffe0, 0xffffffee, 0xfffffffe} {
		for n := 1; n <= 8; n++ {
			inside, clear := r.classify(addr, n)
			hit := 0
			for i := 0; i < n; i++ {
				if r.declares(addr + vm.Word(i)) {
					hit++
				}
			}
			if inside && hit != n || clear && hit != 0 {
				t.Errorf("write [%#x,+%d): inside=%v clear=%v, but %d of %d bytes declared", addr, n, inside, clear, hit, n)
			}
		}
	}
}
