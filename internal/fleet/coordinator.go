package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flowcheck/internal/serve"
)

// Typed coordinator rejections.
var (
	// ErrNoShards marks a request with no live shard to serve it.
	ErrNoShards = errors.New("fleet: no healthy shards")
	// ErrDraining marks a request refused by a shutting-down coordinator.
	ErrDraining = errors.New("fleet: coordinator draining")
)

// ShardSpec names one flowserved backend.
type ShardSpec struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Options configures a Coordinator. The zero value of every knob gets a
// sensible default.
type Options struct {
	// Shards is the fleet membership. Names must be unique; they key the
	// ring, the NetPlan chaos targets, and the X-Flow-Shard header.
	Shards []ShardSpec

	// VirtualNodes per shard on the ring (default 64).
	VirtualNodes int
	// Replicas is each key's preference-list depth: how many distinct
	// shards a request may try across failover and hedging (default
	// min(3, len(Shards))).
	Replicas int

	// ProbeInterval is the health-probe cadence (default 250ms);
	// ProbeTimeout bounds one probe (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is how many consecutive failures mark a shard down
	// (default 2). Down shards rejoin on the next passing probe.
	FailThreshold int

	// HedgeAfter is the floor hedge delay (default 50ms); the effective
	// delay is max(HedgeAfter, HedgeMultiple × the shard's latency EWMA).
	// MaxHedges bounds duplicate launches per request (default 1); zero
	// HedgeMultiple defaults to 3. Hedging duplicates work, so it costs
	// capacity to buy tail latency — the loser is canceled and its
	// ledger charge settles to zero (serve settles canceled runs at 0).
	HedgeAfter    time.Duration
	HedgeMultiple float64
	MaxHedges     int

	// BaseBackoff/MaxBackoff shape the capped, jittered failover backoff
	// (defaults 10ms/500ms); BackoffSeed fixes the jitter for tests.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	BackoffSeed int64

	// BatchWorkersPerShard is each shard's concurrent run width during a
	// batch fan-out (default 4). MaxRedispatch bounds how many times one
	// run may be re-dispatched after shard failures (default
	// 2×len(Shards)) before the run is recorded failed.
	BatchWorkersPerShard int
	MaxRedispatch        int

	// SolverWork bounds the coordinator's joint solve of merged batch
	// graphs; it must match the shards' configuration for distributed
	// batches to be bit-identical to in-process ones (default unlimited,
	// the engine's own default).
	SolverWork int64

	// Transport is the chaos seam: the fleet's HTTP round tripper
	// (fault.NetTransport in tests). Nil means http.DefaultTransport.
	Transport http.RoundTripper

	// Logger receives per-request routing decisions; nil disables.
	Logger *slog.Logger
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 64
	}
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.Replicas > len(o.Shards) {
		o.Replicas = len(o.Shards)
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = 50 * time.Millisecond
	}
	if o.HedgeMultiple <= 0 {
		o.HedgeMultiple = 3
	}
	if o.MaxHedges <= 0 {
		o.MaxHedges = 1
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 500 * time.Millisecond
	}
	if o.BatchWorkersPerShard <= 0 {
		o.BatchWorkersPerShard = 4
	}
	if o.MaxRedispatch <= 0 {
		o.MaxRedispatch = 2 * len(o.Shards)
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Coordinator fronts a fleet of flowserved shards: consistent-hash
// routing, health probing, failover, hedging, and distributed batches.
// Create with New, optionally Start the probe loop, serve Handler, and
// Close to drain.
type Coordinator struct {
	opts   Options
	log    *slog.Logger
	ring   *ring
	shards []*shard
	client *http.Client
	start  time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	draining atomic.Bool
	inflight sync.WaitGroup

	probeCancel context.CancelFunc
	probeDone   chan struct{}

	requests     atomic.Int64
	hedgesFired  atomic.Int64
	hedgeWins    atomic.Int64
	failovers    atomic.Int64
	steals       atomic.Int64
	redispatches atomic.Int64
	batches      atomic.Int64
}

// New builds a coordinator over the given shards. It does not probe:
// every shard starts healthy and the first failures or Start's probe
// loop correct the picture.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards configured")
	}
	names := make([]string, 0, len(opts.Shards))
	seen := map[string]bool{}
	for _, s := range opts.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("fleet: shard needs both name and url (got %q, %q)", s.Name, s.URL)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		names = append(names, s.Name)
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:  opts,
		log:   opts.Logger,
		ring:  newRing(names, opts.VirtualNodes),
		start: opts.Now(),
		rng:   rand.New(rand.NewSource(opts.BackoffSeed)),
		client: &http.Client{
			Transport: opts.Transport,
		},
	}
	for _, s := range opts.Shards {
		c.shards = append(c.shards, &shard{name: s.Name, url: s.URL})
	}
	return c, nil
}

// Start launches the background health-probe loop. Optional: without it
// the coordinator still demotes shards on request failures, but down
// shards never rejoin and drain states are only discovered the hard way.
func (c *Coordinator) Start() {
	if c.probeDone != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	c.probeDone = make(chan struct{})
	go func() {
		defer close(c.probeDone)
		ticker := time.NewTicker(c.opts.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				var wg sync.WaitGroup
				for _, sh := range c.shards {
					wg.Add(1)
					go func(sh *shard) {
						defer wg.Done()
						c.probe(ctx, sh)
					}(sh)
				}
				wg.Wait()
			}
		}
	}()
}

// Close drains the coordinator: new requests are refused with
// ErrDraining, the probe loop stops, and Close returns once in-flight
// requests finish.
func (c *Coordinator) Close() {
	c.draining.Store(true)
	if c.probeCancel != nil {
		c.probeCancel()
		<-c.probeDone
	}
	c.inflight.Wait()
}

// Draining reports whether Close has begun.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// candidates is the key's live preference list: the ring order filtered
// to routable shards. When nothing is routable it falls back to the full
// ring order — the health picture may be stale, and a refused desperate
// attempt is better than refusing the client outright.
func (c *Coordinator) candidates(key uint64) []*shard {
	order := c.ring.Lookup(key, c.opts.Replicas)
	out := make([]*shard, 0, len(order))
	for _, i := range order {
		if c.shards[i].routable() {
			out = append(out, c.shards[i])
		}
	}
	if len(out) == 0 {
		for _, i := range order {
			out = append(out, c.shards[i])
		}
	}
	return out
}

// backoff is the capped, jittered failover delay before the k-th
// failover attempt (k ≥ 1): base·2^(k-1) capped, jittered into [d/2, d].
func (c *Coordinator) backoff(k int) time.Duration {
	d := c.opts.BaseBackoff << (k - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// hedgeDelay is how long the coordinator waits on a shard before
// launching the duplicate: a multiple of the shard's latency budget,
// floored so cold shards are not hedged instantly.
func (c *Coordinator) hedgeDelay(sh *shard) time.Duration {
	d := c.opts.HedgeAfter
	if b := sh.latencyBudgetUS(); b > 0 {
		m := time.Duration(float64(b)*c.opts.HedgeMultiple) * time.Microsecond
		if m > d {
			d = m
		}
	}
	return d
}

// Analyze routes one request: primary attempt on the program's home
// shard, a hedged duplicate on the next replica when the primary
// exceeds its latency budget, and failover with capped backoff on
// retryable failures. The first sound answer wins and every other
// in-flight attempt is canceled — a canceled shard run settles its
// ledger charge to zero, so the race never double-charges the
// principal.
func (c *Coordinator) Analyze(ctx context.Context, req *serve.AnalyzeRequest) (*serve.AnalyzeResponse, string, error) {
	if c.draining.Load() {
		return nil, "", ErrDraining
	}
	c.inflight.Add(1)
	defer c.inflight.Done()
	c.requests.Add(1)

	cands := c.candidates(programKey(req.Program))
	if len(cands) == 0 {
		return nil, "", ErrNoShards
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		resp   *serve.AnalyzeResponse
		err    error
		sh     *shard
		hedged bool
	}
	results := make(chan outcome, len(cands))
	next, outstanding := 0, 0
	launch := func(delay time.Duration, hedged, failover bool) {
		sh := cands[next]
		next++
		outstanding++
		if hedged {
			sh.hedges.Add(1)
			c.hedgesFired.Add(1)
		}
		if failover {
			sh.failovers.Add(1)
			c.failovers.Add(1)
		}
		go func() {
			if delay > 0 {
				t := time.NewTimer(delay)
				select {
				case <-rctx.Done():
					t.Stop()
					results <- outcome{err: &shardError{shard: sh.name, err: rctx.Err()}, sh: sh}
					return
				case <-t.C:
				}
			}
			resp, err := c.do(rctx, sh, req)
			results <- outcome{resp: resp, err: err, sh: sh, hedged: hedged}
		}()
	}

	launch(0, false, false)
	var hedgeCh <-chan time.Time
	if next < len(cands) && c.opts.MaxHedges > 0 {
		t := time.NewTimer(c.hedgeDelay(cands[0]))
		defer t.Stop()
		hedgeCh = t.C
	}
	hedges, failoverK := 0, 0
	var lastErr error
	for outstanding > 0 {
		select {
		case <-hedgeCh:
			hedgeCh = nil
			if hedges < c.opts.MaxHedges && next < len(cands) {
				hedges++
				c.log.Info("fleet: hedging", "program", req.Program, "to", cands[next].name)
				launch(0, true, false)
			}
		case out := <-results:
			outstanding--
			if out.err == nil {
				cancel()
				if out.hedged {
					out.sh.hedgeWins.Add(1)
					c.hedgeWins.Add(1)
				}
				return out.resp, out.sh.name, nil
			}
			var se *shardError
			if errors.As(out.err, &se) && !se.retryable() {
				// Deterministic refusals (429 above all) end the race: a
				// replica answering what this shard denied would defeat the
				// denial, not route around a failure.
				cancel()
				return nil, out.sh.name, out.err
			}
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			lastErr = out.err
			if next < len(cands) {
				failoverK++
				c.log.Info("fleet: failover", "program", req.Program, "from", out.sh.name, "to", cands[next].name, "err", out.err)
				launch(c.backoff(failoverK), false, true)
			}
		}
	}
	if lastErr == nil {
		lastErr = ErrNoShards
	}
	return nil, "", lastErr
}
