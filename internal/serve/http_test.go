package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/serve"
)

func postAnalyze(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPAnalyze(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	want, err := engine.New(guest.Program("unary"), engine.Config{}).Analyze(engine.Inputs{Secret: []byte{200}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postAnalyze(t, ts, `{"program":"unary","secret_b64":"yA==","timeout_ms":5000}`) // 0xc8 = 200
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Bits != want.Bits || out.Program != "unary" || out.Attempts != 1 {
		t.Fatalf("response %+v, want bits=%d", out, want.Bits)
	}
	if out.OutputBytes != len(want.Output) || out.Cut == "" {
		t.Fatalf("response %+v missing execution facts", out)
	}
}

// A per-request solver budget of 1 forces the degradation path through the
// full HTTP surface: 200 with degraded=true and no cut.
func TestHTTPAnalyzeDegradedOverride(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postAnalyze(t, ts, `{"program":"unary","secret":"x","solver_budget":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.DegradedReason == "" {
		t.Fatalf("override did not degrade: %+v", out)
	}
	if out.Cut != "" {
		t.Fatalf("degraded response still carries a cut: %+v", out)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
		kind   string
	}{
		{"bad-json", `{`, http.StatusBadRequest, "bad-request"},
		{"bad-base64", `{"program":"unary","secret_b64":"!!"}`, http.StatusBadRequest, "bad-request"},
		{"unknown-program", `{"program":"nope"}`, http.StatusNotFound, "unknown-program"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postAnalyze(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			var out serve.ErrorResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Kind != tc.kind {
				t.Fatalf("kind %q, want %q", out.Kind, tc.kind)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /analyze status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPHealthAndReady(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Workers <= 0 || len(st.Programs) != 1 {
		t.Fatalf("healthz %d %+v", resp.StatusCode, st)
	}

	if resp, err = http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d before drain, want 200", resp.StatusCode)
	}

	svc.StartDrain()
	if resp, err = http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d after StartDrain, want 503", resp.StatusCode)
	}

	resp, body := postAnalyze(t, ts, `{"program":"unary","secret":"x"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analyze while draining: %d %s", resp.StatusCode, body)
	}
	var out serve.ErrorResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "draining" {
		t.Fatalf("kind %q, want draining", out.Kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// A class length near the top of int is legal on the wire (only negative
// values are rejected) and must bound the same bytes as its in-range
// spelling, not wrap around to an empty class reporting 0 bits.
func TestHTTPClassHugeLen(t *testing.T) {
	svc := newService(t, serve.Options{})
	svc.Register("count_punct", guest.Program("count_punct"), engine.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postAnalyze(t, ts, `{"program":"count_punct","secret":"one. two. three? four.","classes":[`+
		`{"name":"huge","off":1,"len":9223372036854775807},{"name":"exact","off":1,"len":21}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Classes) != 2 {
		t.Fatalf("got %d classes, want 2: %s", len(out.Classes), body)
	}
	huge, exact := out.Classes[0], out.Classes[1]
	if huge.Error != "" || exact.Error != "" {
		t.Fatalf("class errors: %q, %q", huge.Error, exact.Error)
	}
	if exact.Bits == 0 || huge.Bits != exact.Bits {
		t.Fatalf("class [1, MaxInt) = %d bits, [1, 22) = %d bits; want equal and nonzero", huge.Bits, exact.Bits)
	}
}
