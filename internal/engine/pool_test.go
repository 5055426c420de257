package engine_test

import (
	"errors"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
)

// TestPanickedSessionQuarantined is the poisoned-pool regression test: a
// session whose run panicked mid-stage must be quarantined, not returned
// to the pool. Before the fix, release() put the panicked session back
// and a Workers:1 batch served run 1 from run 0's poisoned session —
// observable here as only one session ever being created. After the fix
// the batch worker swaps in a fresh session (created goes to 2) and the
// poisoned one is counted recycled.
func TestPanickedSessionQuarantined(t *testing.T) {
	for _, stage := range []fault.Stage{fault.StageExecute, fault.StageBuild, fault.StageSolve, fault.StageReport} {
		t.Run(string(stage), func(t *testing.T) {
			a := engine.New(guest.Program("unary"), engine.Config{
				Workers: 1, // forces run 1 onto whatever session run 0 left behind
				Fault:   fault.NewPlan().ForRun(0, fault.Injection{PanicStage: stage}),
			})
			res, err := a.AnalyzeBatch(unaryInputs(3, 5))
			if err != nil {
				t.Fatalf("batch failed outright: %v", err)
			}
			if !errors.Is(res.Runs[0].Err, engine.ErrInternal) {
				t.Fatalf("run 0 err %v, want ErrInternal", res.Runs[0].Err)
			}
			if res.Runs[1].Err != nil {
				t.Fatalf("run 1 served from the poisoned session: %v", res.Runs[1].Err)
			}
			if got := a.Pool().Created; got != 2 {
				t.Fatalf("%d sessions created, want 2 (panicked session must be replaced, not reused)", got)
			}
			if got := a.Pool().Recycled; got != 1 {
				t.Fatalf("%d sessions recycled, want 1", got)
			}
			mustZeroLive(t, a)
		})
	}
}

// A single-run panic must quarantine too: the next Analyze on the same
// analyzer gets a fresh session.
func TestPanickedSessionQuarantinedSingleRun(t *testing.T) {
	a := engine.New(guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().ForRun(0, fault.Injection{PanicStage: fault.StageSolve}),
	})
	if _, err := a.Analyze(engine.Inputs{Secret: []byte{3}}); !errors.Is(err, engine.ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
	// Single-run plans are per-analyzer run 0, so the injection fires every
	// Analyze; what matters is the session accounting, not this error.
	if _, err := a.Analyze(engine.Inputs{Secret: []byte{5}}); !errors.Is(err, engine.ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
	if ps := a.Pool(); ps.Created != 2 || ps.Recycled != 2 {
		t.Fatalf("created=%d recycled=%d, want 2/2 (each panicked session discarded)", ps.Created, ps.Recycled)
	}
	mustZeroLive(t, a)
}

// SessionHighWater retires fat sessions: when a run's arena peak exceeds
// the high-water mark the session is recycled instead of pooled, so the
// next run pays a fresh allocation instead of inheriting a bloated arena.
// Results must be unaffected either way.
func TestSessionHighWaterRecycles(t *testing.T) {
	prog := guest.Program("unary")
	in := engine.Inputs{Secret: []byte{200}}
	// Exact mode gives per-operation graphs big enough that high-water 1 is
	// always exceeded.
	base, err := engine.New(prog, engine.Config{Taint: taint.Options{Exact: true}}).Analyze(in)
	if err != nil {
		t.Fatal(err)
	}

	a := engine.New(prog, engine.Config{
		Taint:            taint.Options{Exact: true},
		SessionHighWater: 1,
	})
	for i := 0; i < 3; i++ {
		res, err := a.Analyze(in)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Bits != base.Bits {
			t.Fatalf("run %d: bits %d != %d, recycling changed the result", i, res.Bits, base.Bits)
		}
		if created := a.Pool().Created; created != int64(i+1) {
			t.Fatalf("run %d: %d sessions created, want %d (each over-water session replaced)", i, created, i+1)
		}
	}
	if got := a.Pool().Recycled; got != 3 {
		t.Fatalf("%d sessions recycled, want 3", got)
	}
	mustZeroLive(t, a)

	// Sanity: without a high-water mark nothing is recycled. (Created-count
	// reuse is not asserted — sync.Pool may legally drop entries under GC.)
	b := engine.New(prog, engine.Config{Taint: taint.Options{Exact: true}})
	for i := 0; i < 3; i++ {
		if _, err := b.Analyze(in); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Pool().Recycled; got != 0 {
		t.Fatalf("%d sessions recycled without a high-water mark, want 0", got)
	}
}
