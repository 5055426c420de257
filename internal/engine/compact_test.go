package engine_test

// compact_test.go exercises Config.Compact end to end: online compaction
// during an exact-mode run must leave Bits (and the absence/presence of a
// cut) identical to the uncompacted analysis while actually reclaiming
// edges, and must stay inert outside exact mode.

import (
	"strings"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

func TestCompactionPreservesBitsEndToEnd(t *testing.T) {
	cases := []struct {
		guest      string
		in         engine.Inputs
		compact    int
		checkEvery uint64
	}{
		// Long run, coarse epochs at the default poll interval.
		{"compress", engine.Inputs{Secret: workload.PiWords(1024)}, 4096, 0},
		// Short runs need a tight poll interval to observe the trigger.
		{"unary", engine.Inputs{Secret: []byte{250}}, 64, 32},
		{"count_punct", engine.Inputs{Secret: []byte(strings.Repeat("hello, world! two, punct. ", 40))}, 64, 32},
	}
	for _, tc := range cases {
		t.Run(tc.guest, func(t *testing.T) {
			prog := guest.Program(tc.guest)
			exact := engine.Config{Taint: taint.Options{Exact: true}}

			plain, err := engine.New(prog, exact).Analyze(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Mem.CompactionPasses != 0 {
				t.Fatalf("uncompacted run reports %d compaction passes", plain.Mem.CompactionPasses)
			}

			compacted := exact
			compacted.Compact = tc.compact
			compacted.Budget.CheckEvery = tc.checkEvery
			got, err := engine.New(prog, compacted).Analyze(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if got.Bits != plain.Bits {
				t.Fatalf("compacted Bits = %d, uncompacted = %d", got.Bits, plain.Bits)
			}
			if got.Mem.CompactionPasses == 0 {
				t.Fatalf("Compact=%d ran zero compaction passes", tc.compact)
			}
			if got.Mem.PeakLiveEdges >= got.Mem.TotalEdges {
				t.Fatalf("compaction reclaimed nothing: peak live %d, total emitted %d",
					got.Mem.PeakLiveEdges, got.Mem.TotalEdges)
			}
			if got.Mem.ReclaimedEdges == 0 {
				t.Fatal("compaction reports zero reclaimed edges")
			}
		})
	}
}

func TestCompactionInertOutsideExactMode(t *testing.T) {
	prog := guest.Program("count_punct")
	in := engine.Inputs{Secret: []byte("hello, world!")}
	res, err := engine.New(prog, engine.Config{Compact: 16}).Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.CompactionPasses != 0 {
		t.Fatalf("collapsed-mode run compacted %d times; Compact must be exact-only",
			res.Mem.CompactionPasses)
	}
}

// The batch path aggregates MemStats across runs: peaks take the maximum,
// compaction counters sum.
func TestBatchAggregatesMemStats(t *testing.T) {
	prog := guest.Program("unary")
	inputs := unaryInputs(10, 100, 250)
	cfg := engine.Config{Taint: taint.Options{Exact: true}, Compact: 64, Workers: 1}
	cfg.Budget.CheckEvery = 32

	var wantPasses, peak int
	for _, in := range inputs {
		r, err := engine.New(prog, cfg).Analyze(in)
		if err != nil {
			t.Fatal(err)
		}
		wantPasses += r.Mem.CompactionPasses
		if r.Mem.PeakLiveEdges > peak {
			peak = r.Mem.PeakLiveEdges
		}
	}

	if wantPasses == 0 {
		t.Fatal("no run compacted; the aggregation check would be vacuous")
	}
	res, err := engine.New(prog, cfg).AnalyzeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.CompactionPasses != wantPasses {
		t.Fatalf("batch CompactionPasses = %d, sum of runs = %d", res.Mem.CompactionPasses, wantPasses)
	}
	if res.Mem.PeakLiveEdges != peak {
		t.Fatalf("batch PeakLiveEdges = %d, max of runs = %d", res.Mem.PeakLiveEdges, peak)
	}
}
