package engine_test

// allocs_test.go pins the allocation behavior of the engine's batch and
// single-run paths. Pooled sessions mean a warmed Analyzer re-running the
// same input should allocate only per-run result assembly — not fresh
// graphs, solver networks, queues, label tables or write-set bitmaps. The
// ceilings are ~2x the measured steady state, so they catch a regression
// that reintroduces per-run rebuilding of any large structure without
// flaking on allocator noise. (A small per-run table would hide under 2x on
// guessnum; internal/taint's reset tests pin table reuse exactly.)

import (
	"runtime"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/workload"
)

func TestBatchAllocsSteadyState(t *testing.T) {
	prog := guest.Program("unary")
	inputs := unaryInputs(5, 50, 120, 200)
	a := engine.New(prog, engine.Config{Workers: 1})

	// Warm the pooled session (guest memory, tracker, solver buffers).
	if _, err := a.AnalyzeBatch(inputs); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(10, func() {
		if _, err := a.AnalyzeBatch(inputs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("batch of %d runs: %.0f allocs/op", len(inputs), avg)

	const ceiling = 1500 // steady state measures ~660 for this batch
	if avg > ceiling {
		t.Fatalf("batch path allocates %.0f/op, ceiling %d — a pooled buffer regressed to per-run allocation", avg, ceiling)
	}
}

// TestAnalyzeAllocsSteadyState gates a warmed pooled Analyze: allocations
// per op, and bytes per op from a runtime.MemStats delta.
func TestAnalyzeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops sessions at random under -race")
	}
	secret, public, _ := guest.SampleInputs("guessnum")
	for _, tc := range []struct {
		guest     string
		in        engine.Inputs
		maxAllocs float64
		maxBytes  uint64
	}{
		// Collapsed compress on a 1 KiB window: ~144 allocs, ~0.97 MB per op.
		{"compress", engine.Inputs{Secret: workload.PiWords(1024)}, 300, 2 << 20},
		// The small interactive query: ~60 allocs, ~36 KB per op.
		{"guessnum", engine.Inputs{Secret: secret, Public: public}, 120, 72 << 10},
	} {
		t.Run(tc.guest, func(t *testing.T) {
			a := engine.New(guest.Program(tc.guest), engine.Config{})
			run := func() {
				if _, err := a.Analyze(tc.in); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pooled session
			allocs := testing.AllocsPerRun(10, run)

			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs

			t.Logf("%.0f allocs/op, %d B/op", allocs, bytes)
			if allocs > tc.maxAllocs || bytes > tc.maxBytes {
				t.Fatalf("warmed Analyze allocates %.0f/op and %d B/op, ceilings %.0f and %d — a pooled structure regressed to per-run allocation",
					allocs, bytes, tc.maxAllocs, tc.maxBytes)
			}
		})
	}
}
