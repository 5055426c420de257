package fleet

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/ledger"
	"flowcheck/internal/serve"
)

// testShard is one in-process flowserved: a real serve.Service behind a
// real HTTP listener, exactly what the coordinator fronts in production.
type testShard struct {
	name string
	svc  *serve.Service
	ts   *httptest.Server
	led  *ledger.Ledger
}

// newTestShard boots a shard serving the unary guest with cfg.
func newTestShard(t *testing.T, name string, cfg engine.Config, opts serve.Options) *testShard {
	t.Helper()
	opts.ShardName = name
	svc := serve.New(opts)
	svc.Register("unary", guest.Program("unary"), cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return &testShard{name: name, svc: svc, ts: ts, led: opts.Ledger}
}

func newTestCoordinator(t *testing.T, opts Options, shards ...*testShard) *Coordinator {
	t.Helper()
	for _, sh := range shards {
		opts.Shards = append(opts.Shards, ShardSpec{Name: sh.name, URL: sh.ts.URL})
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func unaryRequest(secret byte) *serve.AnalyzeRequest {
	return &serve.AnalyzeRequest{
		Program:   "unary",
		SecretB64: base64.StdEncoding.EncodeToString([]byte{secret}),
	}
}

func unaryDirect(t *testing.T, secret byte) *engine.Result {
	t.Helper()
	res, err := engine.New(guest.Program("unary"), engine.Config{}).Analyze(engine.Inputs{Secret: []byte{secret}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// unaryPrimary reports which of the two named shards owns the unary
// program on the ring, so tests can place faults on the primary
// deterministically.
func unaryPrimary(names ...string) int {
	return newRing(names, 64).Lookup(programKey("unary"), len(names))[0]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// Routing: the answer matches a direct engine run bit for bit, and the
// same program lands on the same shard request after request — the cache
// affinity consistent hashing exists for.
func TestAnalyzeMatchesDirectAndSticksToOneShard(t *testing.T) {
	a := newTestShard(t, "a", engine.Config{}, serve.Options{})
	b := newTestShard(t, "b", engine.Config{}, serve.Options{})
	c := newTestCoordinator(t, Options{}, a, b)

	want := unaryDirect(t, 200)
	homes := map[string]bool{}
	for i := 0; i < 5; i++ {
		resp, shardName, err := c.Analyze(context.Background(), unaryRequest(200))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Bits != want.Bits {
			t.Fatalf("fleet bits %d != direct %d", resp.Bits, want.Bits)
		}
		homes[shardName] = true
	}
	if len(homes) != 1 {
		t.Fatalf("program moved between shards with no failures: %v", homes)
	}
}

// Failover: the primary is dead at the TCP level; the request must
// succeed on the replica, the failover be counted, and the dead shard be
// demoted so later requests skip it.
func TestFailoverOnDeadPrimary(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	live := newTestShard(t, "live", engine.Config{}, serve.Options{})
	// Give the dead listener the ring's preferred name so the first
	// attempt deterministically hits it.
	names := []string{"x", "y"}
	primary := unaryPrimary(names...)
	deadName, liveName := names[primary], names[1-primary]
	c, err := New(Options{
		Shards: []ShardSpec{
			{Name: deadName, URL: deadURL},
			{Name: liveName, URL: live.ts.URL},
		},
		FailThreshold: 1,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := unaryDirect(t, 7)
	resp, shardName, err := c.Analyze(context.Background(), unaryRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if shardName != liveName || resp.Bits != want.Bits {
		t.Fatalf("answer came from %q with %d bits, want %s/%d", shardName, resp.Bits, liveName, want.Bits)
	}
	if c.failovers.Load() == 0 {
		t.Fatal("failover not counted")
	}
	if st := c.shards[0].getState(); st != StateDown {
		t.Fatalf("dead shard state %v, want down (FailThreshold 1)", st)
	}

	// Demoted shards get no traffic: the next request goes straight to
	// the live shard with no additional failover.
	before := c.failovers.Load()
	if _, shardName, err = c.Analyze(context.Background(), unaryRequest(7)); err != nil || shardName != liveName {
		t.Fatalf("post-demotion request: shard %q err %v", shardName, err)
	}
	if c.failovers.Load() != before {
		t.Fatal("routing around a down shard must not count as failover")
	}
}

// Hedging: the primary stalls mid-execution; the duplicate launched on
// the replica must win the race, the caller must get the (identical)
// answer fast, and the loser's cancellation must not demote the stalled
// shard.
func TestHedgeWinsOnStallingPrimary(t *testing.T) {
	stallCfg := engine.Config{Fault: fault.NewPlan().Every(fault.Injection{StallAtStep: 1, StallFor: 500 * time.Millisecond})}
	names := []string{"a", "b"}
	primary := unaryPrimary(names...)
	cfgs := map[int]engine.Config{primary: stallCfg, 1 - primary: {}}

	a := newTestShard(t, "a", cfgs[0], serve.Options{})
	b := newTestShard(t, "b", cfgs[1], serve.Options{})
	c := newTestCoordinator(t, Options{HedgeAfter: 5 * time.Millisecond}, a, b)

	want := unaryDirect(t, 42)
	start := time.Now()
	resp, shardName, err := c.Analyze(context.Background(), unaryRequest(42))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Bits != want.Bits {
		t.Fatalf("hedged answer %d bits, want %d", resp.Bits, want.Bits)
	}
	if shardName != names[1-primary] {
		t.Fatalf("winner %q, want the hedged replica %q", shardName, names[1-primary])
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("hedge took %v; the caller waited out the stall", elapsed)
	}
	if c.hedgesFired.Load() != 1 || c.hedgeWins.Load() != 1 {
		t.Fatalf("hedges fired %d won %d, want 1/1", c.hedgesFired.Load(), c.hedgeWins.Load())
	}
	// The stalled primary lost a race; it did not fail.
	if st := c.shards[primary].getState(); st == StateDown {
		t.Fatal("losing a hedge race demoted the shard")
	}
}

// A 429 budget denial must end the request: failing over to a replica
// whose ledger has not seen the spend would circumvent the principal's
// fleet-wide budget by design.
func Test429NeverFailsOver(t *testing.T) {
	names := []string{"deny", "other"}
	primary := unaryPrimary(names...)

	denying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "budget exceeded", Kind: "budget-exceeded"})
	}))
	t.Cleanup(denying.Close)
	other := newTestShard(t, "spare", engine.Config{}, serve.Options{})

	specs := make([]ShardSpec, 2)
	specs[primary] = ShardSpec{Name: names[primary], URL: denying.URL}
	specs[1-primary] = ShardSpec{Name: names[1-primary], URL: other.ts.URL}
	c, err := New(Options{Shards: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, shardName, err := c.Analyze(context.Background(), unaryRequest(9))
	if err == nil {
		t.Fatal("budget denial answered successfully")
	}
	var se *shardError
	if !errors.As(err, &se) || se.status != http.StatusTooManyRequests {
		t.Fatalf("error %v, want a 429 shardError", err)
	}
	if se.kind != "budget-exceeded" || se.retryAfter != 7*time.Second {
		t.Fatalf("shardError kind %q retryAfter %v, want budget-exceeded/7s", se.kind, se.retryAfter)
	}
	if shardName != names[primary] {
		t.Fatalf("denial attributed to %q, want %q", shardName, names[primary])
	}
	// The replica never saw the request.
	if got := c.shards[1-primary].requests.Load(); got != 0 {
		t.Fatalf("replica served %d requests after a 429; budget circumvented", got)
	}
	if c.failovers.Load() != 0 {
		t.Fatal("429 counted as failover")
	}
}

// The drain-vs-hedge race of ISSUE 10: the primary stalls, the hedge
// duplicates the request onto the replica, and the primary enters drain
// while both are in flight. The principal must be charged for exactly
// one analysis across the whole fleet — the winner settles its measured
// bits, the canceled loser settles to zero.
func TestDrainDuringHedgeSettlesExactlyOneCharge(t *testing.T) {
	openLedger := func() *ledger.Ledger {
		led, err := ledger.Open(ledger.Options{BudgetBits: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { led.Close() })
		return led
	}

	stallCfg := engine.Config{Fault: fault.NewPlan().Every(fault.Injection{StallAtStep: 1, StallFor: 300 * time.Millisecond})}
	names := []string{"a", "b"}
	primary := unaryPrimary(names...)
	cfgs := map[int]engine.Config{primary: stallCfg, 1 - primary: {}}

	ledgers := []*ledger.Ledger{openLedger(), openLedger()}
	a := newTestShard(t, "a", cfgs[0], serve.Options{Ledger: ledgers[0]})
	b := newTestShard(t, "b", cfgs[1], serve.Options{Ledger: ledgers[1]})
	shards := []*testShard{a, b}
	c := newTestCoordinator(t, Options{HedgeAfter: 5 * time.Millisecond}, a, b)

	// The moment the hedge fires (primary stalled, duplicate launched),
	// the primary starts draining — the exact race the ledger must
	// survive without double-charging.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		deadline := time.Now().Add(5 * time.Second)
		for c.hedgesFired.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		shards[primary].svc.StartDrain()
	}()

	want := unaryDirect(t, 64)
	req := unaryRequest(64)
	req.Principal = "alice"
	resp, shardName, err := c.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	<-drained
	if shardName != names[1-primary] || resp.Bits != want.Bits {
		t.Fatalf("winner %q bits %d, want %q/%d", shardName, resp.Bits, names[1-primary], want.Bits)
	}

	// The loser's charge settles (to zero) once its canceled run unwinds
	// past the stall; wait for both ledgers to go quiescent.
	pending := func() int64 {
		var n int64
		for _, led := range ledgers {
			for _, e := range led.Stats().Entries {
				n += e.PendingBits
			}
		}
		return n
	}
	waitFor(t, "all charges settled", func() bool { return pending() == 0 })

	var settled int64
	for _, led := range ledgers {
		for _, e := range led.Stats().Entries {
			if e.Principal != "alice" {
				t.Fatalf("unexpected principal %q in ledger", e.Principal)
			}
			settled += e.SettledBits
		}
	}
	if settled != want.Bits {
		t.Fatalf("fleet-wide settled bits = %d, want exactly one charge of %d", settled, want.Bits)
	}
	if got := ledgers[primary].Cumulative("alice", "unary"); got != 0 {
		t.Fatalf("canceled loser settled %d bits, want 0", got)
	}
	if got := ledgers[1-primary].Cumulative("alice", "unary"); got != want.Bits {
		t.Fatalf("winner settled %d bits, want %d", got, want.Bits)
	}
}

// Probing heals: a shard marked down rejoins the ring after a passing
// probe, and a draining shard is discovered and routed around.
func TestProbeRejoinAndDrainDiscovery(t *testing.T) {
	a := newTestShard(t, "a", engine.Config{}, serve.Options{})
	b := newTestShard(t, "b", engine.Config{}, serve.Options{})
	c := newTestCoordinator(t, Options{ProbeInterval: 5 * time.Millisecond}, a, b)
	c.Start()

	c.shards[0].setState(StateDown)
	waitFor(t, "down shard to rejoin", func() bool { return c.shards[0].getState() == StateHealthy })

	b.svc.StartDrain()
	waitFor(t, "draining shard to be discovered", func() bool { return c.shards[1].getState() == StateDraining })
	if c.shards[1].routable() {
		t.Fatal("draining shard still routable")
	}
}

// The coordinator's own HTTP surface: X-Flow-Shard on answers, the
// /statz shard table, readyz flipping on drain, and Retry-After on the
// draining refusal.
func TestCoordinatorHTTPSurface(t *testing.T) {
	a := newTestShard(t, "a", engine.Config{}, serve.Options{})
	b := newTestShard(t, "b", engine.Config{}, serve.Options{})
	c := newTestCoordinator(t, Options{}, a, b)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	// The shards themselves stamp X-Flow-Shard on every response.
	sresp, err := http.Get(a.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if got := sresp.Header.Get("X-Flow-Shard"); got != "a" {
		t.Fatalf("shard healthz X-Flow-Shard = %q, want a", got)
	}

	body := `{"program":"unary","secret_b64":"` + base64.StdEncoding.EncodeToString([]byte{200}) + `"}`
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Flow-Shard") == "" {
		t.Fatal("coordinator response missing X-Flow-Shard")
	}

	statz, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer statz.Body.Close()
	var st Stats
	if err := json.NewDecoder(statz.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 || st.Requests != 1 || st.Healthy != 2 {
		t.Fatalf("statz %+v, want 2 shards, 1 request, 2 healthy", st)
	}
	for _, row := range st.Shards {
		if row.State == "" || row.URL == "" || row.RingVNodes == 0 {
			t.Fatalf("incomplete shard row %+v", row)
		}
	}

	ready, _ := http.Get(ts.URL + "/readyz")
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d while healthy", ready.StatusCode)
	}

	c.Close()
	ready, _ = http.Get(ts.URL + "/readyz")
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d while draining, want 503", ready.StatusCode)
	}
	denied, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer denied.Body.Close()
	if denied.StatusCode != http.StatusServiceUnavailable || denied.Header.Get("Retry-After") == "" {
		t.Fatalf("draining analyze: status %d Retry-After %q, want 503 with a hint",
			denied.StatusCode, denied.Header.Get("Retry-After"))
	}
}
