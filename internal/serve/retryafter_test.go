package serve_test

import (
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/ledger"
	"flowcheck/internal/serve"
)

func unaryBody(secret byte) string {
	return `{"program":"unary","secret_b64":"` + base64.StdEncoding.EncodeToString([]byte{secret}) + `"}`
}

// A 429 from a windowed budget carries Retry-After: the window tells the
// principal exactly when settled bits decay and waiting becomes useful.
func TestHTTP429RetryAfterFromLedgerWindow(t *testing.T) {
	direct, err := engine.New(guest.Program("unary"), engine.Config{}).Analyze(engine.Inputs{Secret: []byte{200}})
	if err != nil {
		t.Fatal(err)
	}
	budget := direct.Bits + 4
	if budget < 8 {
		budget = 8 // the 1-byte pre-run estimate must fit once
	}
	led, err := ledger.Open(ledger.Options{BudgetBits: budget, Window: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	svc := newService(t, serve.Options{Ledger: led})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, _ := postAnalyze(t, ts, unaryBody(200))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d", resp.StatusCode)
	}
	resp, body := postAnalyze(t, ts, unaryBody(200))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d (%s), want 429", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("windowed 429 missing Retry-After")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("Retry-After %q outside the 30s window", ra)
	}
}

// A lifetime budget (no decay window) has no honest retry hint: waiting
// will never help, so the 429 must NOT advertise Retry-After.
func TestHTTP429LifetimeBudgetHasNoRetryAfter(t *testing.T) {
	led, err := ledger.Open(ledger.Options{BudgetBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	svc := newService(t, serve.Options{Ledger: led})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if resp, _ := postAnalyze(t, ts, unaryBody(200)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d", resp.StatusCode)
	}
	resp, _ := postAnalyze(t, ts, unaryBody(200))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("lifetime-budget 429 advertises Retry-After %q; waiting cannot help", ra)
	}
}

// An open circuit breaker's 503 carries the remaining cooldown as
// Retry-After, so clients back off for exactly as long as the breaker
// will keep rejecting.
func TestHTTP503BreakerRetryAfter(t *testing.T) {
	svc := serve.New(serve.Options{BreakerThreshold: 1, BreakerCooldown: 2 * time.Second})
	svc.Register("boom", guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{PanicStage: fault.StageSolve}),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, _ := postAnalyze(t, ts, `{"program":"boom","secret_b64":"yA=="}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic returned %d, want 500", resp.StatusCode)
	}
	resp, body := postAnalyze(t, ts, `{"program":"boom","secret_b64":"yA=="}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker returned %d (%s), want 503", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 2 {
		t.Fatalf("breaker 503 Retry-After %q, want the ≤2s remaining cooldown", ra)
	}
}
