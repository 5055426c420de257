package serve_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/serve"
)

// TestServiceChaosSoak hammers a small service (2 workers, depth-2 queue)
// with concurrent traffic across programs scripted to panic, trap, stall,
// exhaust budgets, degrade, or behave — plus short-deadline requests to
// provoke admission sheds. The soak asserts the resilience contract as
// observable properties:
//
//   - every request terminates with a success or a typed, classified error
//     (no hangs, no untyped failures);
//   - shed requests got ErrOverload without consuming a worker: engine
//     runs are started only for admitted requests, and the admission
//     ledger balances (admitted = completed + failed);
//   - sound results are bit-identical to a fault-free reference run of the
//     same program and input — chaos may fail requests, never corrupt them;
//   - after Drain, nothing is in flight and no engine session is live or
//     left poisoned in a pool (quarantine counted in recycled).
//
// Run under -race this is also the service's data-race soak. Guarded by
// -short so the quick tier stays quick.
func TestServiceChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}

	svc := serve.New(serve.Options{
		Workers:          2,
		QueueDepth:       2,
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       4 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Millisecond,
		SessionHighWater: 1 << 20,
	})
	prog := guest.Program("unary")
	svc.Register("healthy", prog, engine.Config{})
	svc.Register("trappy", prog, engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{TrapAtStep: 50}),
	})
	svc.Register("stally", prog, engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{StallAtStep: 100, StallFor: time.Millisecond}),
	})
	svc.Register("panicky", prog, engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{PanicStage: fault.StageSolve}),
	})
	svc.Register("tight", prog, engine.Config{
		Budget: engine.Budget{MaxOutputBytes: 64}, // retries grow it to fit
	})
	svc.Register("degraded", prog, engine.Config{
		Budget: engine.Budget{SolverWork: 1},
	})
	programs := []string{"healthy", "trappy", "stally", "panicky", "tight", "degraded"}

	// Fault-free references: sound served results must match these bits.
	secret := byte(200)
	ref, err := engine.New(prog, engine.Config{}).Analyze(engine.Inputs{Secret: []byte{secret}})
	if err != nil {
		t.Fatal(err)
	}
	refTrap, err := engine.New(prog, engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{TrapAtStep: 50}),
	}).Analyze(engine.Inputs{Secret: []byte{secret}})
	if err != nil {
		t.Fatal(err)
	}

	const total = 120
	type outcome struct {
		program string
		resp    *serve.Response
		err     error
	}
	outcomes := make([]outcome, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		i := i
		name := programs[i%len(programs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if i%7 == 0 {
				// A sprinkle of tight deadlines to provoke deadline sheds
				// once the EWMA warms up.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 3*time.Millisecond)
				defer cancel()
			}
			resp, err := svc.Analyze(ctx, serve.Request{
				Program: name,
				Inputs:  engine.Inputs{Secret: []byte{secret}},
			})
			outcomes[i] = outcome{program: name, resp: resp, err: err}
		}()
	}
	wg.Wait()

	var ok, shed, breaker, canceled, internal, budget int
	for i, o := range outcomes {
		switch {
		case o.err == nil:
			ok++
			res := o.resp.Result
			if res.Degraded {
				if o.program != "degraded" {
					t.Errorf("req %d (%s): unexpected degraded result", i, o.program)
				}
				continue
			}
			// Sound, exact results must be bit-identical to the reference.
			want := ref.Bits
			if o.program == "trappy" {
				want = refTrap.Bits
			}
			if res.Bits != want {
				t.Errorf("req %d (%s): bits %d != reference %d", i, o.program, res.Bits, want)
			}
		case errors.Is(o.err, serve.ErrOverload):
			shed++
		case errors.Is(o.err, serve.ErrBreakerOpen):
			breaker++
			if o.program != "panicky" {
				t.Errorf("req %d (%s): breaker opened for a healthy program: %v", i, o.program, o.err)
			}
		case errors.Is(o.err, engine.ErrCanceled):
			canceled++
		case errors.Is(o.err, engine.ErrInternal):
			internal++
			if o.program != "panicky" {
				t.Errorf("req %d (%s): internal failure without injected panic: %v", i, o.program, o.err)
			}
		case errors.Is(o.err, engine.ErrBudget):
			budget++
		default:
			t.Errorf("req %d (%s): untyped failure %v", i, o.program, o.err)
		}
	}
	t.Logf("ok=%d shed=%d breaker=%d canceled=%d internal=%d budget=%d", ok, shed, breaker, canceled, internal, budget)
	if ok == 0 {
		t.Fatal("no request succeeded; soak exercised nothing")
	}

	// Drain and check the ledger. Every request is accounted exactly once,
	// engine runs happened only for admitted requests, and sheds plus
	// breaker rejections never consumed a worker.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	// ErrCanceled reaches the client from two places — the slot wait in
	// admission and a deadline mid-run — so the ledger brackets it: the
	// gap between total and (shed + breaker-rejected + admitted) is
	// exactly the admission cancels, and client-observed cancels cover it.
	cancelInAdmit := total - st.Shed - st.BreakerRejected - st.Admitted
	if cancelInAdmit < 0 || cancelInAdmit > int64(canceled) {
		t.Fatalf("admission ledger unbalanced: shed %d + breaker %d + admitted %d vs total %d (client cancels %d)",
			st.Shed, st.BreakerRejected, st.Admitted, total, canceled)
	}
	if shed == 0 {
		t.Fatal("no request was shed; the soak never overloaded admission")
	}
	if st.Admitted != st.Completed+st.Failed {
		t.Fatalf("admitted %d != completed %d + failed %d", st.Admitted, st.Completed, st.Failed)
	}
	if int64(shed) != st.Shed || int64(breaker) != st.BreakerRejected || int64(ok) != st.Completed {
		t.Fatalf("client-observed outcomes (ok=%d shed=%d breaker=%d) disagree with stats %+v", ok, shed, breaker, st)
	}
	if st.Started < st.Admitted {
		t.Fatalf("started %d < admitted %d: an admitted request ran nothing", st.Started, st.Admitted)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("drained service still has work: %+v", st)
	}
	for _, p := range st.Programs {
		if p.Pool.Live != 0 {
			t.Fatalf("program %s leaked %d sessions", p.Name, p.Pool.Live)
		}
	}
	// Panicked sessions were quarantined, never re-pooled.
	for _, p := range st.Programs {
		if p.Name == "panicky" && p.Pool.Recycled == 0 && internal+breaker > 0 {
			t.Fatalf("panicky program recycled no sessions: %+v", p)
		}
	}

	// Post-drain the service refuses cleanly.
	if _, err := svc.Analyze(context.Background(), serve.Request{Program: "healthy"}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain analyze: %v, want ErrDraining", err)
	}
}

// TestServiceSoakDeterministicBounds reruns the same mixed workload twice
// on fresh services and checks the sound results agree run to run — the
// service layer (retries, recycling, concurrency) must not perturb the
// analysis semantics.
func TestServiceSoakDeterministicBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	secrets := []byte{0, 3, 40, 128, 200, 255}
	run := func() map[string]int64 {
		svc := serve.New(serve.Options{Workers: 3, QueueDepth: 64, MaxAttempts: 3, BaseBackoff: time.Millisecond})
		svc.Register("unary", guest.Program("unary"), engine.Config{
			Budget: engine.Budget{MaxOutputBytes: 64},
		})
		bits := make(map[string]int64)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, sec := range secrets {
			sec := sec
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := svc.Analyze(context.Background(), serve.Request{
					Program: "unary", Inputs: engine.Inputs{Secret: []byte{sec}},
				})
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					bits[fmt.Sprintf("s%d", sec)] = -1
					return
				}
				bits[fmt.Sprintf("s%d", sec)] = resp.Result.Bits
			}()
		}
		wg.Wait()
		return bits
	}
	a, b := run(), run()
	for k, v := range a {
		if v == -1 {
			t.Fatalf("%s failed", k)
		}
		if b[k] != v {
			t.Fatalf("%s: %d != %d across identical runs", k, v, b[k])
		}
	}
}
