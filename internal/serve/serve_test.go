package serve_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/serve"
)

func newService(t *testing.T, opts serve.Options) *serve.Service {
	t.Helper()
	svc := serve.New(opts)
	svc.Register("unary", guest.Program("unary"), engine.Config{})
	return svc
}

func req(secret ...byte) serve.Request {
	return serve.Request{Program: "unary", Inputs: engine.Inputs{Secret: secret}}
}

// waitFor polls cond for up to two seconds; soak-free synchronization for
// the admission tests.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAnalyzeOK(t *testing.T) {
	svc := newService(t, serve.Options{})
	want, err := engine.New(guest.Program("unary"), engine.Config{}).Analyze(engine.Inputs{Secret: []byte{200}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Analyze(context.Background(), req(200))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", resp.Attempts)
	}
	if resp.Result.Bits != want.Bits {
		t.Fatalf("served bits %d != direct engine bits %d", resp.Result.Bits, want.Bits)
	}
	st := svc.Stats()
	if st.Admitted != 1 || st.Completed != 1 || st.Failed != 0 || st.Shed != 0 {
		t.Fatalf("stats after one success: %+v", st)
	}
	if st.EWMALatencyUS <= 0 {
		t.Fatal("EWMA latency not observed")
	}
}

func TestUnknownProgram(t *testing.T) {
	svc := newService(t, serve.Options{})
	_, err := svc.Analyze(context.Background(), serve.Request{Program: "nope"})
	if !errors.Is(err, serve.ErrUnknownProgram) {
		t.Fatalf("got %v, want ErrUnknownProgram", err)
	}
}

// TestQueueFullSheds pins the "before consuming a worker" guarantee: with
// the single worker held by a stalled run and the depth-1 queue occupied,
// a third request is refused with a typed queue-full OverloadError and no
// engine run is started for it.
func TestQueueFullSheds(t *testing.T) {
	svc := serve.New(serve.Options{Workers: 1, QueueDepth: 1})
	// Every run of "slow" stalls 300ms at step 1, holding the worker.
	svc.Register("slow", guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{StallAtStep: 1, StallFor: 300 * time.Millisecond}),
	})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		svc.Analyze(context.Background(), serve.Request{Program: "slow", Inputs: engine.Inputs{Secret: []byte{1}}})
	}()
	waitFor(t, "worker occupied", func() bool { return svc.Stats().Started >= 1 })
	go func() {
		defer wg.Done()
		svc.Analyze(context.Background(), serve.Request{Program: "slow", Inputs: engine.Inputs{Secret: []byte{2}}})
	}()
	waitFor(t, "queue occupied", func() bool { return svc.Stats().Queued >= 1 })

	_, err := svc.Analyze(context.Background(), serve.Request{Program: "slow", Inputs: engine.Inputs{Secret: []byte{3}}})
	if !errors.Is(err, serve.ErrOverload) {
		t.Fatalf("got %v, want ErrOverload", err)
	}
	var oe *serve.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue-full" {
		t.Fatalf("got %v, want queue-full OverloadError", err)
	}
	st := svc.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	if st.Started > 1 {
		t.Fatalf("shed request started an engine run (started=%d)", st.Started)
	}
	wg.Wait()
}

// TestDeadlineSheds: once the EWMA knows a run takes time, a request whose
// deadline the backlog estimate cannot meet is shed up front instead of
// being admitted to time out on a worker.
func TestDeadlineSheds(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 1})
	if _, err := svc.Analyze(context.Background(), req(5)); err != nil {
		t.Fatal(err) // seeds the EWMA
	}
	if svc.EWMALatency() <= 0 {
		t.Fatal("EWMA not seeded")
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, err := svc.Analyze(ctx, req(5))
	var oe *serve.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "deadline" {
		t.Fatalf("got %v, want deadline OverloadError", err)
	}
	if st := svc.Stats(); st.Started != 1 {
		t.Fatalf("shed request started an engine run (started=%d)", st.Started)
	}
}

// TestRetryGrowsBudget: a real output-budget failure retries with the
// budget doubled each attempt and succeeds once it fits — here 64 → 128 →
// 256 against 200 output bytes, succeeding on attempt 3.
func TestRetryGrowsBudget(t *testing.T) {
	var slept []time.Duration
	svc := serve.New(serve.Options{
		MaxAttempts: 3,
		BaseBackoff: 4 * time.Millisecond,
		MaxBackoff:  16 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	svc.Register("unary", guest.Program("unary"), engine.Config{
		Budget: engine.Budget{MaxOutputBytes: 64},
	})

	want, err := engine.New(guest.Program("unary"), engine.Config{}).Analyze(engine.Inputs{Secret: []byte{200}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Analyze(context.Background(), req(200))
	if err != nil {
		t.Fatalf("request failed after retries: %v", err)
	}
	if resp.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", resp.Attempts)
	}
	if resp.Result.Bits != want.Bits {
		t.Fatalf("retried bits %d != unbudgeted bits %d", resp.Result.Bits, want.Bits)
	}
	if len(slept) != 2 {
		t.Fatalf("%d backoff sleeps, want 2", len(slept))
	}
	for i, d := range slept {
		lo := (4 * time.Millisecond) << i / 2
		hi := (4 * time.Millisecond) << i
		if d < lo || d > hi {
			t.Fatalf("backoff %d = %v, want in [%v, %v]", i, d, lo, hi)
		}
	}
	if st := svc.Stats(); st.Retried != 2 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// Budget growth off: the same request fails with the typed budget error
// after exhausting attempts on the unchanged budget.
func TestRetryWithoutGrowthFails(t *testing.T) {
	svc := serve.New(serve.Options{
		MaxAttempts:         2,
		DisableBudgetGrowth: true,
		Sleep:               func(time.Duration) {},
	})
	svc.Register("unary", guest.Program("unary"), engine.Config{
		Budget: engine.Budget{MaxOutputBytes: 64},
	})
	_, err := svc.Analyze(context.Background(), req(200))
	if !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	if st := svc.Stats(); st.Failed != 1 || st.Retried != 1 || st.Started != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRetryDegraded: a solver-degraded (but sound) result retries with the
// solver budget doubled until the solve is exact.
func TestRetryDegraded(t *testing.T) {
	svc := serve.New(serve.Options{
		MaxAttempts:   20,
		RetryDegraded: true,
		Sleep:         func(time.Duration) {},
	})
	svc.Register("unary", guest.Program("unary"), engine.Config{
		Budget: engine.Budget{SolverWork: 1},
	})
	want, err := engine.New(guest.Program("unary"), engine.Config{}).Analyze(engine.Inputs{Secret: []byte{200}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Analyze(context.Background(), req(200))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Degraded {
		t.Fatalf("result still degraded after %d attempts", resp.Attempts)
	}
	if resp.Attempts < 2 {
		t.Fatalf("attempts = %d, want ≥ 2 (first solve must have degraded)", resp.Attempts)
	}
	if resp.Result.Bits != want.Bits {
		t.Fatalf("bits %d != exact %d", resp.Result.Bits, want.Bits)
	}
}

// Without RetryDegraded the degraded result is returned as-is, first try.
func TestDegradedReturnedWithoutRetry(t *testing.T) {
	svc := serve.New(serve.Options{})
	svc.Register("unary", guest.Program("unary"), engine.Config{
		Budget: engine.Budget{SolverWork: 1},
	})
	resp, err := svc.Analyze(context.Background(), req(200))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result.Degraded || resp.Attempts != 1 {
		t.Fatalf("degraded=%v attempts=%d, want degraded on attempt 1", resp.Result.Degraded, resp.Attempts)
	}
}

// TestBreakerOpensAndProbes: consecutive internal failures open the
// program's breaker, open rejects fast without touching the engine, the
// cooldown admits one half-open probe, and a failed probe reopens.
func TestBreakerOpensAndProbes(t *testing.T) {
	svc := serve.New(serve.Options{
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	svc.Register("panicky", guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{PanicStage: fault.StageSolve}),
	})
	call := func() error {
		_, err := svc.Analyze(context.Background(), serve.Request{Program: "panicky", Inputs: engine.Inputs{Secret: []byte{3}}})
		return err
	}

	for i := 0; i < 2; i++ {
		if err := call(); !errors.Is(err, engine.ErrInternal) {
			t.Fatalf("call %d: got %v, want ErrInternal", i, err)
		}
	}
	err := call()
	if !errors.Is(err, serve.ErrBreakerOpen) {
		t.Fatalf("got %v, want ErrBreakerOpen", err)
	}
	var be *serve.BreakerOpenError
	if !errors.As(err, &be) || be.State != "open" || be.Consecutive != 2 {
		t.Fatalf("got %+v, want open breaker after 2 consecutive", be)
	}
	st := svc.Stats()
	if st.Started != 2 {
		t.Fatalf("breaker-rejected request started an engine run (started=%d)", st.Started)
	}
	if st.BreakerRejected != 1 || st.Programs[0].Breaker != "open" || st.Programs[0].BreakerOpens != 1 {
		t.Fatalf("stats: %+v", st)
	}

	time.Sleep(60 * time.Millisecond) // past the cooldown
	if err := call(); !errors.Is(err, engine.ErrInternal) {
		t.Fatalf("half-open probe: got %v, want the probe to run and fail", err)
	}
	if err := call(); !errors.Is(err, serve.ErrBreakerOpen) {
		t.Fatalf("after failed probe: got %v, want ErrBreakerOpen", err)
	}
	if st := svc.Stats(); st.Programs[0].BreakerOpens != 2 {
		t.Fatalf("failed probe did not reopen: %+v", st.Programs[0])
	}
}

// TestDrain: once draining, requests are refused with ErrDraining and
// Drain returns with nothing in flight.
func TestDrain(t *testing.T) {
	svc := newService(t, serve.Options{})
	if _, err := svc.Analyze(context.Background(), req(5)); err != nil {
		t.Fatal(err)
	}
	svc.StartDrain()
	if !svc.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	if _, err := svc.Analyze(context.Background(), req(5)); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.InFlight != 0 || !st.Draining {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestLogsCarryStageAndInjection: the structured failure line names the
// pipeline stage and renders the scripted injection — the observability
// contract the chaos sweeps grep.
func TestLogsCarryStageAndInjection(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	svc := serve.New(serve.Options{
		Logger: slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil)),
	})
	svc.Register("panicky", guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{PanicStage: fault.StageBuild}),
	})
	if _, err := svc.Analyze(context.Background(), serve.Request{Program: "panicky", Inputs: engine.Inputs{Secret: []byte{3}}}); err == nil {
		t.Fatal("injected panic did not fail the request")
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{"outcome=failed", "stage=build", "inject=panic:build", "program=panicky", "attempt=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
