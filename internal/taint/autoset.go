package taint

import (
	"cmp"
	mbits "math/bits"
	"slices"

	"flowcheck/internal/vm"
)

// autoTrackLimit bounds a region's exact record of undeclared writes: past
// this many distinct addresses it coalesces into one covering range.
const autoTrackLimit = 4096

// autoPageShift sizes the bitmap pages: 4 KiB, one bit per byte address.
const autoPageShift = 12

// autoSet is a region's set of written-but-undeclared non-stack addresses:
// one bitmap per touched 4 KiB page, kept in page order, plus a one-entry
// page cache, so a write costs a bit test rather than a map insertion. The
// zero value is empty and allocates nothing until the first add. Past
// autoTrackLimit distinct addresses it drops the bitmaps and keeps only
// the covering range [lo, hi).
type autoSet struct {
	pages  []autoPage
	cur    *[64]uint64 // bitmap of page curNum, the last page written
	curNum vm.Word
	n      int // distinct addresses recorded

	overflow bool
	lo, hi   vm.Word
}

type autoPage struct {
	num  vm.Word // address >> autoPageShift
	bits *[64]uint64
}

// add records a write to address a.
func (s *autoSet) add(a vm.Word) {
	if s.overflow {
		if a < s.lo {
			s.lo = a
		}
		if a >= s.hi {
			s.hi = a + 1
		}
		return
	}
	if num := a >> autoPageShift; s.cur == nil || num != s.curNum {
		s.cur, s.curNum = s.page(num), num
	}
	w, bit := a>>6&63, uint64(1)<<(a&63)
	if s.cur[w]&bit != 0 {
		return
	}
	s.cur[w] |= bit
	s.n++
	if s.n > autoTrackLimit {
		lo, hi := s.bounds()
		*s = autoSet{overflow: true, lo: lo, hi: hi}
	}
}

// page returns the bitmap of page num, adding it in order if absent.
func (s *autoSet) page(num vm.Word) *[64]uint64 {
	i, ok := slices.BinarySearchFunc(s.pages, num, func(p autoPage, num vm.Word) int {
		return cmp.Compare(p.num, num)
	})
	if !ok {
		s.pages = slices.Insert(s.pages, i, autoPage{num: num, bits: new([64]uint64)})
	}
	return s.pages[i].bits
}

// bounds returns the range [lo, hi) covering every recorded address, or
// (0, 0) for an empty set.
func (s *autoSet) bounds() (lo, hi vm.Word) {
	rs := s.ranges(nil)
	if len(rs) == 0 {
		return 0, 0
	}
	last := rs[len(rs)-1]
	return rs[0].Addr, last.Addr + last.Len
}

// ranges appends the recorded addresses to out as ascending, maximally
// coalesced ranges; once overflowed, the one covering range. Ranges already
// in out are never extended.
func (s *autoSet) ranges(out []vm.Range) []vm.Range {
	if s.overflow {
		return append(out, vm.Range{Addr: s.lo, Len: s.hi - s.lo})
	}
	first := len(out)
	for _, p := range s.pages {
		for w, x := range p.bits {
			for x != 0 {
				b := mbits.TrailingZeros64(x)
				run := mbits.TrailingZeros64(^(x >> b)) // set bits from b up
				a := p.num<<autoPageShift | vm.Word(w)<<6 | vm.Word(b)
				if n := len(out); n > first && out[n-1].Addr+out[n-1].Len == a {
					out[n-1].Len += vm.Word(run)
				} else {
					out = append(out, vm.Range{Addr: a, Len: vm.Word(run)})
				}
				if b+run == 64 {
					break
				}
				x &^= (uint64(1)<<run - 1) << b
			}
		}
	}
	return out
}
