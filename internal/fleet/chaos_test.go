package fleet

import (
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/ledger"
	"flowcheck/internal/serve"
	"flowcheck/internal/taint"
)

// chaosFleet is N real serve.Services behind real listeners, fronted by
// a coordinator whose transport runs through a fault.NetPlan — the whole
// production stack, minus the network being real.
type chaosFleet struct {
	shards  []*testShard
	ledgers []*ledger.Ledger
	coord   *Coordinator
	base    *http.Transport
}

func newChaosFleet(t *testing.T, n int, cfg engine.Config, plan *fault.NetPlan, opts Options) *chaosFleet {
	t.Helper()
	f := &chaosFleet{base: &http.Transport{}}
	t.Cleanup(f.base.CloseIdleConnections)
	hostToName := map[string]string{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		led, err := ledger.Open(ledger.Options{BudgetBits: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { led.Close() })
		svc := serve.New(serve.Options{ShardName: name, Ledger: led})
		svc.Register("unary", guest.Program("unary"), cfg)
		svc.Register("count_punct", guest.Program("count_punct"), cfg)
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		hostToName[ts.Listener.Addr().String()] = name
		f.shards = append(f.shards, &testShard{name: name, svc: svc, ts: ts, led: led})
		f.ledgers = append(f.ledgers, led)
		opts.Shards = append(opts.Shards, ShardSpec{Name: name, URL: ts.URL})
	}
	opts.Transport = &fault.NetTransport{
		Base: f.base,
		Plan: plan,
		Target: func(r *http.Request) string {
			if name, ok := hostToName[r.URL.Host]; ok {
				return name
			}
			return r.URL.Host
		},
	}
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	f.coord = coord
	return f
}

// The headline guarantee of ISSUE 10: a distributed batch whose shard
// dies mid-batch still produces the exact bits a single process would
// have, because the surviving runs are re-dispatched and the merge goes
// through the same engine.SolveJoint seam.
func TestBatchBitIdenticalUnderShardKill(t *testing.T) {
	for _, exact := range []bool{false, true} {
		name := "collapsed"
		if exact {
			name = "exact"
		}
		t.Run(name, func(t *testing.T) {
			cfg := engine.Config{Taint: taint.Options{Exact: exact}}

			// Shard s1 serves one batch request, then drops off the network
			// for good — the transport-level kill -9.
			plan := fault.NewNetPlan().Partition("s1", 1, 1<<30)
			f := newChaosFleet(t, 3, cfg, plan, Options{
				FailThreshold:        1,
				BaseBackoff:          time.Millisecond,
				MaxBackoff:           2 * time.Millisecond,
				BatchWorkersPerShard: 2,
			})

			const nRuns = 12
			req := &BatchRequest{Program: "unary"}
			inputs := make([]engine.Inputs, nRuns)
			for i := 0; i < nRuns; i++ {
				secret := []byte{byte(3 + i*17)}
				inputs[i] = engine.Inputs{Secret: secret}
				req.Runs = append(req.Runs, RunInput{SecretB64: base64.StdEncoding.EncodeToString(secret)})
			}
			want, err := engine.New(guest.Program("unary"), cfg).AnalyzeBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}

			resp, err := f.coord.AnalyzeBatch(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.MergedRuns != nRuns {
				t.Fatalf("merged %d of %d runs: %+v", resp.MergedRuns, nRuns, resp.Runs)
			}
			if resp.Bits != want.Bits {
				t.Fatalf("distributed batch %d bits, single-process %d — NOT bit-identical", resp.Bits, want.Bits)
			}
			if resp.Redispatches == 0 {
				t.Fatal("the killed shard's runs were never re-dispatched; the kill did not bite")
			}
			for _, rs := range resp.Runs {
				if rs.Error != "" || rs.Trapped {
					t.Fatalf("run %d lost to the shard kill: %+v", rs.Run, rs)
				}
			}
		})
	}
}

// The seeded chaos soak of ISSUE 10's acceptance criterion: a mixed
// fault.RandomNet plan (refused connections, stalls, mid-body cuts,
// partitions) over 100+ concurrent requests with hedging and failover
// racing everywhere. Invariants: every answered request is bit-exact
// (zero unsound answers), the fleet's ledgers end quiescent with no
// charge left pending, and draining leaks no goroutines.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	baseGoroutines := runtime.NumGoroutine()

	const seed = 20260807
	plan := fault.RandomNet(seed, []string{"s0", "s1", "s2"}, 300)
	f := newChaosFleet(t, 3, engine.Config{}, plan, Options{
		FailThreshold: 2,
		ProbeInterval: 20 * time.Millisecond,
		HedgeAfter:    2 * time.Millisecond,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
	})
	f.coord.Start()

	// Precompute ground truth: the analysis is deterministic, so any
	// answer that differs from a direct engine run is unsound.
	type workItem struct {
		program string
		secret  []byte
	}
	var work []workItem
	for i := 0; i < 4; i++ {
		work = append(work, workItem{"unary", []byte{byte(40 * (i + 1))}})
		work = append(work, workItem{"count_punct", []byte(fmt.Sprintf("hello, world %d!?", i))})
	}
	expected := make(map[int]int64, len(work))
	for i, w := range work {
		res, err := engine.New(guest.Program(w.program), engine.Config{}).Analyze(engine.Inputs{Secret: w.secret})
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = res.Bits
	}

	const requests = 140
	const workers = 10
	var ok, failed, unsound atomic.Int64
	var okBits atomic.Int64 // Σ expected bits over answered requests
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				item := work[i%len(work)]
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				resp, _, err := f.coord.Analyze(ctx, &serve.AnalyzeRequest{
					Program:   item.program,
					SecretB64: base64.StdEncoding.EncodeToString(item.secret),
				})
				cancel()
				switch {
				case err != nil:
					failed.Add(1)
				case resp.Bits != expected[i%len(work)]:
					unsound.Add(1)
					t.Errorf("request %d (%s): got %d bits, want %d — UNSOUND", i, item.program, resp.Bits, expected[i%len(work)])
				default:
					ok.Add(1)
					okBits.Add(expected[i%len(work)])
				}
			}
		}()
	}

	// Two distributed batches race the singles through the same chaos.
	batchInputs := make([]engine.Inputs, 8)
	batchReq := &BatchRequest{Program: "unary"}
	for i := range batchInputs {
		secret := []byte{byte(5 + i*11)}
		batchInputs[i] = engine.Inputs{Secret: secret}
		batchReq.Runs = append(batchReq.Runs, RunInput{SecretB64: base64.StdEncoding.EncodeToString(secret)})
	}
	var batchResults [2]*BatchResponse
	for b := range batchResults {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			resp, err := f.coord.AnalyzeBatch(ctx, batchReq)
			if err != nil {
				t.Logf("batch %d failed under chaos: %v", b, err)
				return
			}
			batchResults[b] = resp
		}(b)
	}
	wg.Wait()

	t.Logf("soak: %d ok, %d failed, %d unsound; coordinator %+v",
		ok.Load(), failed.Load(), unsound.Load(), f.coord.Stats())
	if unsound.Load() != 0 {
		t.Fatalf("%d unsound answers", unsound.Load())
	}
	if ok.Load() < requests*3/4 {
		t.Fatalf("only %d/%d requests answered; the fleet did not route around the chaos", ok.Load(), requests)
	}

	// Batch soundness: the merged bits must equal a single-process batch
	// over exactly the runs that merged — shard loss may shrink the merge
	// (recorded per run), never skew it.
	for b, resp := range batchResults {
		if resp == nil {
			continue
		}
		var mergedInputs []engine.Inputs
		for _, rs := range resp.Runs {
			if rs.Error == "" && !rs.Trapped {
				mergedInputs = append(mergedInputs, batchInputs[rs.Run])
			}
		}
		if len(mergedInputs) != resp.MergedRuns {
			t.Fatalf("batch %d: %d clean runs but MergedRuns=%d", b, len(mergedInputs), resp.MergedRuns)
		}
		want, err := engine.New(guest.Program("unary"), engine.Config{}).AnalyzeBatch(mergedInputs)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Bits != want.Bits {
			t.Fatalf("batch %d: distributed %d bits over %d runs, single-process %d — UNSOUND",
				b, resp.Bits, resp.MergedRuns, want.Bits)
		}
	}

	// Drain the whole fleet and check the ledger invariants: nothing
	// pending (every charge settled, hedging and cancellation included),
	// and total settled bits consistent with the answers released.
	f.coord.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var totalShardRequests int64
	for _, sh := range f.shards {
		sh.svc.StartDrain()
		if err := sh.svc.Drain(drainCtx); err != nil {
			t.Fatalf("shard %s drain: %v", sh.name, err)
		}
		totalShardRequests += sh.svc.Stats().Admitted
	}
	var pending, settled int64
	for _, led := range f.ledgers {
		for _, e := range led.Stats().Entries {
			pending += e.PendingBits
			settled += e.SettledBits
		}
	}
	if pending != 0 {
		t.Fatalf("%d bits still pending after drain; a charge never settled", pending)
	}
	var maxBits int64
	for _, b := range expected {
		if b > maxBits {
			maxBits = b
		}
	}
	if settled < okBits.Load() {
		t.Fatalf("fleet settled %d bits < %d released to clients; answers escaped the ledger", settled, okBits.Load())
	}
	if limit := (totalShardRequests + 16) * maxBits; settled > limit {
		t.Fatalf("fleet settled %d bits > %d plausible maximum; double-charging", settled, limit)
	}

	// Close every listener, then the fleet must shrink back to the
	// baseline goroutine count: no leaked probe loops, batch workers,
	// hedge goroutines, or stuck handlers.
	for _, sh := range f.shards {
		sh.ts.Close()
	}
	f.base.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseGoroutines+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
		runtime.NumGoroutine(), baseGoroutines, buf[:runtime.Stack(buf, true)])
}
