package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fleet"
	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
	"flowcheck/internal/ledger"
	"flowcheck/internal/serve"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/vm"
)

// fleet-interactive drives an in-process coordinator in front of two
// serve.Service shards on loopback, each with a durable ledger and a stage
// cache, open loop at a seeded Poisson schedule well below capacity.
const (
	fleetRate         = 240.0 // requests per second
	fleetShards       = 2
	fleetVariants     = 1024 // per guest; more than the cold requests one run sends
	fleetPrincipals   = 64
	adaptiveThreshold = 32
	repeatMinAge      = 200 * time.Millisecond // a repeat's original is done by then
	// ledgerSyncEvery batches WAL fsyncs (flowserved -ledger-sync 16). An
	// fsync per append put two disk flushes under the ledger lock on every
	// request; their latency follows other tenants' I/O on a shared disk,
	// and it moved fleet latency by up to 40% between identical runs.
	ledgerSyncEvery = 16
	maxLateP99      = 100 * time.Millisecond // generator behind schedule: run invalid
	requestTimeout  = 10 * time.Second
)

var fleetGuests = []string{"guessnum", "count_punct", "calendar", "interp", "sshauth", "battleship", "xserver"}

type fleetKind uint8

const (
	kindPlain    fleetKind = iota // cold single analysis
	kindRepeat                    // exact repeat of an earlier plain request: warm fast path
	kindAdaptive                  // precision: adaptive
	kindClasses                   // two secret classes
)

type fleetOp struct {
	due     time.Duration // offset from the schedule start
	kind    fleetKind
	guest   int
	variant int
	req     serve.AnalyzeRequest
	key     uint64 // hash of the request body the coordinator sends
}

type fleetDone struct {
	resp       *serve.AnalyzeResponse
	err        error
	lat        time.Duration // completion − due
	late       time.Duration // send − due
	start, end time.Time
}

type fleetShard struct {
	svc *serve.Service
	led *ledger.Ledger
	ts  *httptest.Server
	mw  *shardMiddleware
}

type fleetBench struct {
	ops    []fleetOp
	warm   []serve.AnalyzeRequest
	dir    string
	progs  []*vm.Program
	shards []*fleetShard
	coord  *fleet.Coordinator
}

func newFleet(seed int64, d time.Duration, probe bool) (bench, error) {
	b := &fleetBench{}
	for _, name := range fleetGuests {
		secret, public, _ := guest.SampleInputs(name)
		req := serve.AnalyzeRequest{Program: name, Principal: "warmup", SecretB64: b64(secret), PublicB64: b64(public)}
		b.warm = append(b.warm, req)
		if cl := classesFor(secret); cl != nil {
			req.Classes = classSpecs(cl)
			b.warm = append(b.warm, req)
		}
	}
	if !probe {
		b.ops = schedule(seed, d)
	}
	return b, nil
}

// schedule draws the open-loop arrivals and the request mix from the seed:
// exactly fleetRate·d arrivals with exponential gaps scaled to span d;
// 60% cold plain requests (each guest walks a seeded permutation of its
// variants), 20% exact repeats of a plain request at least repeatMinAge
// older, 10% adaptive-precision and 10% two-class requests, each from one
// of fleetPrincipals principals.
func schedule(seed int64, d time.Duration) []fleetOp {
	rng := rand.New(rand.NewSource(seed))
	n := int(fleetRate * d.Seconds())
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	perm := make([][]int, len(fleetGuests))
	next := make([]int, len(fleetGuests))
	for g := range perm {
		perm[g] = rng.Perm(fleetVariants)
	}
	ops := make([]fleetOp, 0, n)
	var plain []int // indices of plain ops, in due order
	eligible := 0   // plain ops old enough to repeat
	var at float64
	for i := 0; i < n; i++ {
		at += gaps[i]
		op := fleetOp{due: time.Duration(at / total * float64(d)), guest: rng.Intn(len(fleetGuests))}
		for eligible < len(plain) && ops[plain[eligible]].due <= op.due-repeatMinAge {
			eligible++
		}
		r := rng.Float64()
		switch {
		case r < 0.8 && r >= 0.6 && eligible > 0:
			orig := ops[plain[rng.Intn(eligible)]]
			op.kind, op.guest, op.variant = kindRepeat, orig.guest, orig.variant
		case r < 0.8:
			op.kind = kindPlain
			op.variant = perm[op.guest][next[op.guest]%fleetVariants]
			next[op.guest]++
			plain = append(plain, len(ops))
		case r < 0.9:
			op.kind = kindAdaptive
			op.variant = rng.Intn(fleetVariants)
		default:
			op.kind = kindClasses
			op.guest = 1 + rng.Intn(len(fleetGuests)-1) // guessnum's secret is one byte
			op.variant = rng.Intn(fleetVariants)
		}
		name := fleetGuests[op.guest]
		secret, public := variantInputs(name, op.variant)
		op.req = serve.AnalyzeRequest{
			Program:   name,
			Principal: fmt.Sprintf("p%02d", rng.Intn(fleetPrincipals)),
			SecretB64: b64(secret),
			PublicB64: b64(public),
		}
		switch op.kind {
		case kindAdaptive:
			op.req.Precision, op.req.AdaptiveThreshold = "adaptive", adaptiveThreshold
		case kindClasses:
			op.req.Classes = classSpecs(classesFor(secret))
		}
		body, _ := json.Marshal(&op.req)
		op.key = bodyKey(body)
		ops = append(ops, op)
	}
	return ops
}

func classSpecs(cl []engine.SecretClass) []serve.ClassSpec {
	out := make([]serve.ClassSpec, len(cl))
	for i, c := range cl {
		out[i] = serve.ClassSpec{Name: c.Name, Off: c.Off, Len: c.Len}
	}
	return out
}

func b64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

func bodyKey(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// tmpBase is where ledgers live: inside the checkout's build directory.
func tmpBase() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// setup compiles the guests, opens one WAL-backed ledger per shard, boots
// the shards and waits for each to answer /readyz, boots the coordinator,
// and warms every guest.
func (b *fleetBench) setup() error {
	b.progs = b.progs[:0]
	for _, name := range fleetGuests {
		prog, err := lang.Compile(name+".mc", guest.Source(name))
		if err != nil {
			return err
		}
		b.progs = append(b.progs, prog)
	}
	base, err := tmpBase()
	if err != nil {
		return err
	}
	if b.dir, err = os.MkdirTemp(base, "fleet-"); err != nil {
		return err
	}
	var specs []fleet.ShardSpec
	for i := 0; i < fleetShards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		led, err := ledger.Open(ledger.Options{Dir: filepath.Join(b.dir, name), SyncEvery: ledgerSyncEvery})
		if err != nil {
			return err
		}
		svc := serve.New(serve.Options{ShardName: name, CacheBytes: 32 << 20, Ledger: led})
		for g, prog := range b.progs {
			svc.Register(fleetGuests[g], prog, engine.Config{})
		}
		mw := &shardMiddleware{next: svc.Handler()}
		sh := &fleetShard{svc: svc, led: led, ts: httptest.NewServer(mw), mw: mw}
		b.shards = append(b.shards, sh)
		if err := ready(sh.ts.URL); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		specs = append(specs, fleet.ShardSpec{Name: name, URL: sh.ts.URL})
	}
	b.coord, err = fleet.New(fleet.Options{Shards: specs, ProbeInterval: 100 * time.Millisecond})
	if err != nil {
		return err
	}
	b.coord.Start()
	if h := b.coord.Stats().Healthy; h != fleetShards {
		return fmt.Errorf("coordinator sees %d healthy shards, want %d", h, fleetShards)
	}
	for i := range b.warm {
		if _, _, err := b.coord.Analyze(context.Background(), &b.warm[i]); err != nil {
			return fmt.Errorf("warm-up %s: %w", b.warm[i].Program, err)
		}
	}
	return nil
}

func ready(url string) error {
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}

func (b *fleetBench) close() {
	if b.coord != nil {
		b.coord.Close()
	}
	for _, sh := range b.shards {
		sh.ts.Close()
		sh.led.Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// drive sends ops on their schedule — each from its own goroutine, so a
// slow answer never delays later arrivals — and waits for all of them.
func (b *fleetBench) drive(ops []fleetOp) ([]fleetDone, time.Time) {
	done := make([]fleetDone, len(ops))
	if len(ops) == 0 {
		return done, time.Now()
	}
	origin := time.Now().Add(10*time.Millisecond - ops[0].due)
	var wg sync.WaitGroup
	for i := range ops {
		due := origin.Add(ops[i].due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			start := time.Now()
			resp, _, err := b.coord.Analyze(ctx, &ops[i].req)
			end := time.Now()
			done[i] = fleetDone{resp: resp, err: err, lat: end.Sub(due), late: start.Sub(due), start: start, end: end}
		}(i, due)
	}
	wg.Wait()
	return done, origin.Add(ops[0].due)
}

// check compares one answer with the pinned bits of its kind.
func check(op *fleetOp, d *fleetDone) error {
	if d.err != nil {
		return d.err
	}
	name := fleetGuests[op.guest]
	p := pins.Fleet[name]
	want := p.Plain[op.variant]
	switch op.kind {
	case kindAdaptive:
		want = p.Adaptive[op.variant]
	case kindClasses:
		want = p.Joint[op.variant]
		if len(d.resp.Classes) != 2 {
			return fmt.Errorf("%s variant %d: %d class answers, want 2", name, op.variant, len(d.resp.Classes))
		}
		for i, w := range []int64{p.ClassA[op.variant], p.ClassB[op.variant]} {
			c := d.resp.Classes[i]
			if c.Error != "" || c.Bits != w {
				return fmt.Errorf("%s variant %d class %s: bits %d (%s), pinned %d", name, op.variant, c.Name, c.Bits, c.Error, w)
			}
		}
	}
	if d.resp.Bits != want {
		return fmt.Errorf("%s variant %d kind %d: bits %d, pinned %d", name, op.variant, op.kind, d.resp.Bits, want)
	}
	return nil
}

// run drives ops and turns the answers into a sample. The CPU window
// covers the whole drive, background probes and GC included.
func (b *fleetBench) run(ops []fleetOp) (*sample, []fleetDone, error) {
	c0 := cpuTime()
	done, origin := b.drive(ops)
	s := &sample{cpu: cpuTime() - c0}
	last := origin
	for i := range ops {
		s.record(done[i].lat, check(&ops[i], &done[i]), fleetLimit)
		s.late = append(s.late, done[i].late)
		if done[i].end.After(last) {
			last = done[i].end
		}
	}
	s.elapsed = last.Sub(origin)
	if late := p99(sortedMS(s.late)); late > ms(maxLateP99) {
		return nil, nil, fmt.Errorf("load generator fell behind its schedule: late p99 %.1f ms", late)
	}
	return s, done, nil
}

func (b *fleetBench) measure(time.Duration) (*sample, error) {
	s, _, err := b.run(b.ops)
	return s, err
}

// shardMiddleware wraps a shard's handler; while tracing it records one
// span per /analyze call, keyed by the request body's hash.
type shardMiddleware struct {
	next    http.Handler
	tracing atomic.Bool
	mu      sync.Mutex
	spans   []mwSpan
}

type mwSpan struct {
	key        uint64
	start, end time.Time
}

func (m *shardMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !m.tracing.Load() || r.URL.Path != "/analyze" {
		m.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	m.next.ServeHTTP(w, r)
	sp := mwSpan{key: bodyKey(body), start: start, end: time.Now()}
	m.mu.Lock()
	m.spans = append(m.spans, sp)
	m.mu.Unlock()
}

// counters sums the fleet-wide counters the per-layer metrics difference.
type counters struct {
	fastPath, resultHits, resultLookups, appends, hedges, failovers int64
}

func (b *fleetBench) counters() (counters, error) {
	var c counters
	for _, sh := range b.shards {
		resp, err := http.Get(sh.ts.URL + "/statz")
		if err != nil {
			return c, err
		}
		var st struct {
			CacheFastPath int64 `json:"cache_fast_path"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return c, fmt.Errorf("statz: %w", err)
		}
		c.fastPath += st.CacheFastPath
		k := sh.svc.Cache().Stats().Kinds[engine.KindResult]
		c.resultHits += k.Hits + k.Coalesced
		c.resultLookups += k.Hits + k.Coalesced + k.Misses
		c.appends += sh.led.Stats().Appends
	}
	st := b.coord.Stats()
	c.hedges, c.failovers = st.HedgesFired, st.Failovers
	return c, nil
}

func (b *fleetBench) traceLayers(d time.Duration, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, lm := range layerMetrics {
		out[lm.name] = 0
	}
	split := sort.Search(len(b.ops), func(i int) bool { return b.ops[i].due >= d/2 })
	untraced, traced := b.ops[:split], b.ops[split:]
	if len(untraced) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("run too short to split into an untraced and a traced half")
	}

	// Untraced half: end-to-end latency, lateness, allocator/GC counters.
	m0 := readMem()
	base, _, err := b.run(untraced)
	if err != nil {
		return nil, err
	}
	runtimeMetrics(out, m0, readMem(), base.attempted)
	if base.failed > 0 {
		return nil, fmt.Errorf("untraced half: %w", base.firstErr)
	}
	out["loadgen.late_p99_ms"] = p99(sortedMS(base.late))

	// Traced half: coordinator calls and shard HTTP spans.
	c0, err := b.counters()
	if err != nil {
		return nil, err
	}
	for _, sh := range b.shards {
		sh.mw.tracing.Store(true)
	}
	s, done, err := b.run(traced)
	for _, sh := range b.shards {
		sh.mw.tracing.Store(false)
	}
	if err != nil {
		return nil, err
	}
	if s.failed > 0 {
		return nil, fmt.Errorf("traced half: %w", s.firstErr)
	}
	c1, err := b.counters()
	if err != nil {
		return nil, err
	}
	n := float64(len(traced))
	out["serve.fast_path_share"] = float64(c1.fastPath-c0.fastPath) / n
	if l := c1.resultLookups - c0.resultLookups; l > 0 {
		out["stagecache.result_hit_ratio"] = float64(c1.resultHits-c0.resultHits) / float64(l)
	}
	out["ledger.wal_appends_per_req"] = float64(c1.appends-c0.appends) / n
	out["fleet.hedges_per_req"] = float64(c1.hedges-c0.hedges) / n
	out["fleet.failovers_per_req"] = float64(c1.failovers-c0.failovers) / n
	out["trace.overhead_ms"] = median(sortedMS(s.lat)) - median(sortedMS(base.lat))

	// Match each coordinator call with the shard span that answered it:
	// same body, inside the call, earliest to finish (a hedge's loser ends
	// later or is canceled).
	byKey := map[uint64][]mwSpan{}
	for _, sh := range b.shards {
		for _, sp := range sh.mw.spans {
			byKey[sp.key] = append(byKey[sp.key], sp)
		}
	}
	var service, httpSelf, fleetSelf, attempts, plainService []float64
	for i := range traced {
		op, dn := &traced[i], &done[i]
		root := tr.add("fleet.call", i, 0, dn.start, dn.end)
		service = append(service, dn.resp.LatencyMS)
		attempts = append(attempts, float64(dn.resp.Attempts))
		if op.kind == kindPlain {
			plainService = append(plainService, dn.resp.LatencyMS)
		}
		var win *mwSpan
		for j, sp := range byKey[op.key] {
			if !sp.start.Before(dn.start) && !sp.end.After(dn.end) && (win == nil || sp.end.Before(win.end)) {
				win = &byKey[op.key][j]
			}
		}
		if win == nil {
			continue
		}
		tr.add("shard.http", i, root, win.start, win.end)
		shardMS := ms(win.end.Sub(win.start))
		httpSelf = append(httpSelf, shardMS-dn.resp.LatencyMS)
		fleetSelf = append(fleetSelf, ms(dn.end.Sub(dn.start))-shardMS)
	}
	out["serve.service_ms"] = medianOf(service)
	out["serve.http_ms"] = medianOf(httpSelf)
	out["fleet.self_ms"] = medianOf(fleetSelf)
	out["serve.attempts_per_req"] = mean(attempts)

	// Replay the traced half's cold plain requests through the engine, the
	// layers, and a ledger opened with the shards' options.
	eng, ledgerUS, err := b.replay(tr, traced, out)
	if err != nil {
		return nil, err
	}
	out["ledger.charge_settle_us"] = ledgerUS
	out["serve.self_ms"] = medianOf(plainService) - eng - ledgerUS/1000
	return out, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// replayLimit bounds how many traced requests are replayed.
const replayLimit = 200

// replay re-runs up to replayLimit cold plain requests from ops: through
// a cached analyzer warmed like a shard's (the engine work a shard did),
// through an uncached one and the layer replayer (engine overhead and
// layer times), and through Charge+Settle on a fresh durable ledger. It
// returns the median cached-engine milliseconds and ledger microseconds.
func (b *fleetBench) replay(tr *tracer, ops []fleetOp, out map[string]float64) (float64, float64, error) {
	base, err := tmpBase()
	if err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(base, "replay-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	led, err := ledger.Open(ledger.Options{Dir: dir, SyncEvery: ledgerSyncEvery})
	if err != nil {
		return 0, 0, err
	}
	defer led.Close()

	cached := make([]*engine.Analyzer, len(fleetGuests))
	full := make([]*engine.Analyzer, len(fleetGuests))
	reps := make([]*replayer, len(fleetGuests))
	for g, prog := range b.progs {
		cached[g] = engine.New(prog, engine.Config{Cache: stagecache.New(stagecache.Options{MaxBytes: 32 << 20})})
		full[g] = engine.New(prog, engine.Config{})
		reps[g] = newReplayer(prog, false)
		secret, public, _ := guest.SampleInputs(fleetGuests[g])
		if _, err := cached[g].Analyze(engine.Inputs{Secret: secret, Public: public}); err != nil {
			return 0, 0, err
		}
	}
	var engMS, ledUS, lookupUS, overhead []float64
	replayed := 0
	for i := range ops {
		op := &ops[i]
		if op.kind != kindPlain || replayed == replayLimit {
			continue
		}
		replayed++
		g := op.guest
		secret, public := variantInputs(fleetGuests[g], op.variant)
		in := engine.Inputs{Secret: secret, Public: public}
		opID := len(ops) + i
		root := tr.begin("replay.op", opID, 0)

		var res *engine.Result
		engMS = append(engMS, ms(timed(tr, "engine", opID, root, func() { res, err = cached[g].Analyze(in) })))
		if err != nil {
			return 0, 0, err
		}
		var hit bool
		lookupUS = append(lookupUS, float64(timed(tr, "engine.cached", opID, root, func() { _, hit = cached[g].Cached(in) }))/1e3)
		if !hit {
			return 0, 0, fmt.Errorf("%s: analyzed inputs not in the result cache", fleetGuests[g])
		}
		fullMS := ms(timed(tr, "engine.full", opID, root, func() { _, err = full[g].Analyze(in) }))
		if err != nil {
			return 0, 0, err
		}
		rr, err := reps[g].replay(tr, opID, root, []engine.Inputs{in})
		if err != nil {
			return 0, 0, err
		}
		if rr.bits != res.Bits {
			return 0, 0, fmt.Errorf("%s variant %d: replay bits %d, engine %d", fleetGuests[g], op.variant, rr.bits, res.Bits)
		}
		overhead = append(overhead, fullMS-ms(rr.perRun))
		ledUS = append(ledUS, float64(timed(tr, "ledger.charge_settle", opID, root, func() {
			var ch *ledger.Charge
			if ch, err = led.Charge(op.req.Principal, op.req.Program, cached[g].StaticBoundBits(len(secret))); err == nil {
				err = led.Settle(ch, res.Bits)
			}
		}))/1e3)
		if err != nil {
			return 0, 0, err
		}
		tr.end(root)
	}
	if replayed == 0 {
		return 0, 0, fmt.Errorf("no cold requests to replay")
	}
	layerTimes(out, tr)
	out["engine.overhead_ms"] = medianOf(overhead)
	out["engine.cached_lookup_us"] = medianOf(lookupUS)

	// Reference operation: sshauth variant 0, the same in every run.
	ref := indexOf(fleetGuests, "sshauth")
	secret, public := variantInputs("sshauth", 0)
	in := engine.Inputs{Secret: secret, Public: public}
	rr, err := reps[ref].replay(nil, 0, 0, []engine.Inputs{in})
	if err != nil {
		return 0, 0, err
	}
	out["vm.steps"] = float64(rr.steps)
	out["taint.graph_edges"] = float64(rr.edges)
	allocs, err := medianAllocs(func() error { _, err := full[ref].Analyze(in); return err })
	if err != nil {
		return 0, 0, err
	}
	out["runtime.allocs_per_op"] = allocs
	return medianOf(engMS), medianOf(ledUS), nil
}

func indexOf(list []string, s string) int {
	for i, x := range list {
		if x == s {
			return i
		}
	}
	return -1
}
