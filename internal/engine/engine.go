// Package engine is the staged analysis pipeline behind the public
// flowcheck API. One analysis is four explicit stages:
//
//	Execute  run the guest on the VM with the taint tracker attached
//	Build    turn the tracker's union-find state into a flow network
//	Solve    compute the maximum flow and minimum cut over it
//	Report   assemble the Result (tainting baseline, diagnostics, stats)
//
// An Analyzer binds a program to a configuration and owns a pool of
// sessions — machine, tracker, and max-flow solver — whose buffers are
// reused across runs (vm.Machine.Reset, taint.Tracker.ResetAll, and the
// solver's internal scratch), so repeated analyses stop paying the
// per-run allocation cost of a fresh 4 MiB guest memory and residual
// network.
//
// On top of the single-run pipeline, AnalyzeBatch fans N executions across
// worker sessions and merges the per-run graphs by code location
// (internal/merge), preserving the cross-run soundness of §3.2 while
// running executions in parallel; AnalyzeClassSet executes once and fans
// per-class capacity-view solves across workers (§10.1). Both are
// deterministic: per-run graphs are merged in run order and class results
// land in class order, independent of worker count or scheduling.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flowcheck/internal/cachekey"
	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/static"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

// Config controls an analysis.
type Config struct {
	// Taint configures the tracker (collapsing, context sensitivity, lazy
	// region limits, implicit-flow warnings).
	Taint taint.Options
	// MemSize is the guest memory size (default vm.DefaultMemSize).
	MemSize int
	// MaxSteps bounds guest execution (default vm.DefaultMaxSteps). An
	// exhausted step budget is a typed trap (errors.Is(res.Trap,
	// ErrStepLimit)); the partial run is still soundly analyzable.
	MaxSteps uint64
	// Workers bounds the fan-out of AnalyzeBatch and AnalyzeClassSet;
	// 0 means GOMAXPROCS. Single-run analysis ignores it.
	Workers int
	// Compact sets the online-compaction epoch threshold for exact-mode
	// trackers (taint.Options.Compact): when the live edge count grows past
	// the threshold, the engine's periodic check hook runs an in-place
	// series-parallel compaction pass over the part of the graph the
	// execution can no longer reach. Zero disables compaction. Ignored in
	// collapsed mode. Result.Mem reports the effect.
	Compact int
	// Budget bounds per-run resources (graph size, output bytes, solver
	// work); the zero value is unlimited. See Budget for which limits fail
	// a run and which degrade it.
	Budget Budget
	// Fault injects deterministic failures for testing the degradation
	// paths (internal/fault); nil injects nothing.
	Fault *fault.Plan
	// SessionHighWater, when non-zero, recycles pooled sessions whose last
	// run's arena grew past this many peak live edges: the session is
	// discarded and a later run builds a fresh one, so one pathological
	// input cannot permanently balloon a pooled arena. Sessions that
	// recovered a panic are always discarded, regardless of this knob.
	// Result-visible behavior is unchanged; PoolStats reports the churn.
	SessionHighWater int
	// Lint enables the static pre-pass and the static/dynamic
	// cross-check: CFGs, postdominator-based enclosure regions, and
	// enclosure-span matching are computed once per program process-wide
	// (internal/static, via the global stage cache), a probe records the
	// run's tainted branches and region events, and the violations land on
	// Result.Lint. Adds the Static stage duration to Result.Stages on the
	// run that actually paid for the pass.
	Lint bool
	// Precision selects the rung of the precision ladder (see ladder.go):
	// PrecisionFull (the zero value) runs the dynamic pipeline;
	// PrecisionTrivial and PrecisionStatic answer a sound upper bound with
	// no execution and no session (the static rung rides the process-global
	// static cache); PrecisionAdaptive runs the cheapest rung whose bound
	// is ≤ AdaptiveThreshold and escalates to the full solve only when both
	// cheap rungs exceed it. Rung answers set Result.Rung and
	// Result.Degraded and carry no graph, flow, or cut. AnalyzeClassSet
	// ignores Precision: per-class bounds need the per-class flows.
	Precision Precision
	// AdaptiveThreshold is PrecisionAdaptive's escalation threshold in
	// bits: a cheap rung's bound at or below it is considered good enough.
	AdaptiveThreshold int64
	// Cache, when non-nil, content-addresses the pipeline: single-run
	// results are keyed by (program, config, inputs) and full hits are
	// returned without touching a session, while the collapsed-graph
	// skeleton is keyed by (program, config) so input-only changes re-run
	// only Execute plus a capacity re-solve. Result.Cache records each
	// run's disposition. Nil disables result/skeleton caching; the
	// program-keyed compile and static stages always share the process
	// global cache regardless. See internal/engine/cache.go.
	Cache *stagecache.Cache
}

// Inputs is one execution's input pair: the secret input whose disclosure
// is measured, and the public input (fixed in the attack model of §3.1).
type Inputs struct {
	Secret []byte
	Public []byte
}

// session is one worker's reusable execution state: the guest machine (with
// its memory buffer), the default tracker, and the solver with its residual
// network. Sessions are pooled by the Analyzer and are not safe for
// concurrent use; each worker goroutine holds its own.
type session struct {
	m       *vm.Machine
	tracker *taint.Tracker
	solver  *maxflow.Solver
	rec     *static.Recorder // dynamic-event recorder for Config.Lint
	used    bool             // machine has executed and needs Reset before reuse

	// poisoned marks a session that recovered a panic mid-run: its
	// tracker/arena/machine state may be inconsistent, so release
	// quarantines it (drops it for the GC) instead of pooling it.
	poisoned bool
}

// prepare readies the machine for one run.
func (s *session) prepare(cfg Config, in Inputs) {
	if s.used {
		s.m.Reset()
	}
	s.used = true
	if cfg.MaxSteps != 0 {
		s.m.MaxSteps = cfg.MaxSteps
	}
	s.m.SecretIn = in.Secret
	s.m.PublicIn = in.Public
}

// freshTracker returns the session's tracker reset to a blank state (empty
// graph, §3.2 accumulation discarded), creating it on first use.
func (s *session) freshTracker(opts taint.Options) *taint.Tracker {
	if s.tracker == nil {
		s.tracker = taint.New(opts)
	} else {
		s.tracker.ResetAll()
	}
	return s.tracker
}

// Analyzer runs the staged pipeline for one program under one
// configuration, reusing pooled sessions across calls. It is safe for
// concurrent use: concurrent calls draw distinct sessions from the pool.
type Analyzer struct {
	prog *vm.Program
	cfg  Config
	pool sync.Pool

	// live counts sessions currently checked out of the pool — the
	// observable that the robustness tests use to prove no failure path
	// leaks a session. created and recycled count pool churn: sessions
	// built by pool.New, and sessions quarantined instead of pooled
	// (poisoned by a recovered panic, or over the SessionHighWater mark).
	live     atomic.Int64
	created  atomic.Int64
	recycled atomic.Int64

	// Static analysis is a pure function of the (immutable) program; it is
	// fetched at most once per Analyzer from the process-global program
	// cache, so N Analyzers over one program pay for one pass total.
	staticMu sync.Mutex
	static   *static.Analysis

	// Memoized content-address keys (internal/engine/cache.go).
	keyOnce sync.Once
	progKey cachekey.Key
	cfgKey  cachekey.Key
}

// New creates an Analyzer for prog under cfg.
func New(prog *vm.Program, cfg Config) *Analyzer {
	a := &Analyzer{prog: prog, cfg: cfg}
	a.pool.New = func() any {
		a.created.Add(1)
		size := a.cfg.MemSize
		if size == 0 {
			size = vm.DefaultMemSize
		}
		return &session{
			m:      vm.NewMachineSize(a.prog, size),
			solver: maxflow.NewSolver(maxflow.Dinic),
		}
	}
	return a
}

// Program returns the analyzed program.
func (a *Analyzer) Program() *vm.Program { return a.prog }

// Static returns the cached static analysis of the program, computing it
// on first call. It is available independently of Config.Lint (cmd/flowlint
// uses it without running anything).
func (a *Analyzer) Static() *static.Analysis {
	sa, _, _ := a.staticAnalysis()
	return sa
}

// staticAnalysis returns the static analysis plus the time spent by THIS
// call (zero when it was already available) and whether it was served
// from the process-global program cache. The analysis is keyed by program
// content, not by Analyzer: every engine and session analyzing the same
// bytecode shares one *static.Analysis, and the Static stage cost is
// charged to the one caller fleet-wide that actually ran the pass.
func (a *Analyzer) staticAnalysis() (*static.Analysis, time.Duration, bool) {
	a.staticMu.Lock()
	defer a.staticMu.Unlock()
	if a.static != nil {
		return a.static, 0, true
	}
	t0 := time.Now()
	v, hit, _ := globalCache.Do(KindStatic, a.staticKey(), func() (any, int64, error) {
		sa := static.Analyze(a.prog)
		return sa, estimateStaticBytes(sa), nil
	})
	a.static = v.(*static.Analysis)
	if hit {
		return a.static, 0, true
	}
	return a.static, time.Since(t0), false
}

// Config returns the analyzer's configuration.
func (a *Analyzer) Config() Config { return a.cfg }

func (a *Analyzer) acquire() *session {
	a.live.Add(1)
	return a.pool.Get().(*session)
}

// release returns a session to the pool — unless it must be recycled:
// poisoned sessions (a recovered panic left their state inconsistent) and
// sessions whose last run's arena outgrew Config.SessionHighWater are
// dropped for the GC instead, and a later acquire builds a fresh one.
func (a *Analyzer) release(s *session) {
	a.live.Add(-1)
	if s.poisoned || a.overHighWater(s) {
		a.recycled.Add(1)
		return
	}
	a.pool.Put(s)
}

// overHighWater reports whether the session's last run grew its arena past
// the configured recycle mark.
func (a *Analyzer) overHighWater(s *session) bool {
	hw := a.cfg.SessionHighWater
	if hw <= 0 || s.tracker == nil {
		return false
	}
	return s.tracker.MemStats().PeakLiveEdges > hw
}

// PoolStats reports session-pool churn: sessions currently checked out,
// ever built, and quarantined instead of pooled. Live returning to zero
// after a drain is the no-leak observable; Recycled counts crash-isolation
// and high-water discards.
type PoolStats struct {
	Live     int64
	Created  int64
	Recycled int64
}

// Pool returns a snapshot of the analyzer's session-pool statistics.
func (a *Analyzer) Pool() PoolStats {
	return PoolStats{
		Live:     a.live.Load(),
		Created:  a.created.Load(),
		Recycled: a.recycled.Load(),
	}
}

// injectPanic fires a scripted stage panic; the stage-boundary recovery in
// runStages turns it into an InternalError, exactly as a genuine bug
// panicking at that point would be.
func injectPanic(inj fault.Injection, stage fault.Stage) {
	if inj.PanicStage == stage {
		panic(fmt.Sprintf("fault: injected panic in %s stage", stage))
	}
}

// taintedOutputBits is the tainting bound reported alongside the flow
// (paper §7): the capacity of data actually written out, excluding the
// unbounded chain links that model output ordering. It is NOT sound as a
// fallback bound — plain tainting misses implicit flows.
func taintedOutputBits(g *flowgraph.Graph) int64 {
	var total int64
	for _, e := range g.Edges {
		if e.To == flowgraph.Sink && e.Label.Kind == flowgraph.KindOutput {
			total += e.Cap
		}
	}
	return total
}

// trivialCutBits is the sound fallback bound when the solver budget is
// exhausted: the smaller of the two trivial cuts — all capacity leaving
// Source (the whole secret) or all capacity entering Sink (everything
// observable, implicit chain links included). Any s-t cut's capacity
// bounds the max flow, so this is sound for every graph; it is just
// looser than a real solve. (A partial flow would be a lower bound —
// useless as a leakage bound.)
func trivialCutBits(g *flowgraph.Graph) int64 {
	var fromSource, intoSink int64
	for _, e := range g.Edges {
		if e.From == flowgraph.Source {
			fromSource += e.Cap
		}
		if e.To == flowgraph.Sink {
			intoSink += e.Cap
		}
	}
	if intoSink < fromSource {
		return intoSink
	}
	return fromSource
}

// runStages executes the four pipeline stages for one input on a session,
// with the given tracker (which the caller has reset appropriately: fresh
// for independent runs, carried over for online §3.2 accumulation).
//
// Failure semantics: guest traps — including typed step-limit traps — do
// not fail the run; the partial execution is still soundly analyzable, so
// they return a Result with Trap set. Cancellation, exceeded budgets, and
// stage panics produce no sound result and return a typed error
// (ErrCanceled, ErrBudget, ErrInternal). A panic anywhere in the stages is
// recovered here, at the stage boundary, so it cannot kill the process or
// leak the pooled session.
// reuse permits the Solve stage to go through the skeleton cache; callers
// whose graph topology changes run to run (accumulating trackers,
// per-class secret rangings) pass false.
func (a *Analyzer) runStages(ctx context.Context, s *session, tr *taint.Tracker, in Inputs, inj fault.Injection, reuse bool) (res *Result, err error) {
	stage := fault.StageExecute
	defer func() {
		if r := recover(); r != nil {
			// Quarantine the session: the panic may have left its tracker,
			// arena, or machine mid-mutation, and pooling it would hand the
			// inconsistent state to an unrelated future run.
			s.poisoned = true
			res, err = nil, &InternalError{Stage: stage, Value: r, Stack: debug.Stack()}
		}
	}()
	var st StageStats

	// Optional static pre-pass: fetched once per program process-wide,
	// then each run just installs a probe so the cross-check can compare
	// this run's dynamic events against the cached regions and spans.
	var sa *static.Analysis
	staticHit := false
	if a.cfg.Lint {
		sa, st.Static, staticHit = a.staticAnalysis()
		if s.rec == nil {
			s.rec = static.NewRecorder()
		} else {
			s.rec.Reset()
		}
	}

	t0 := time.Now()
	injectPanic(inj, fault.StageExecute)
	s.prepare(a.cfg, in)
	tr.Attach(s.m)
	if sa != nil {
		tr.SetProbe(s.rec)
	}
	if check := a.checkHook(ctx, tr, inj); check != nil {
		s.m.Check = check
		s.m.CheckEvery = a.cfg.Budget.CheckEvery
		if inj.TrapAtStep != 0 || inj.StallAtStep != 0 {
			s.m.CheckEvery = 1 // exact injected step counts
		}
	}
	runErr := s.m.Run()
	t1 := time.Now()
	st.Execute = t1.Sub(t0)

	var trapErr error
	if runErr != nil {
		var trap *vm.Trap
		if errors.As(runErr, &trap) {
			trapErr = runErr // partial run, still sound to analyze
		} else {
			return nil, runErr // canceled or over budget: no result
		}
	}
	// Re-check the output cap after the run: a guest that finishes within
	// one poll interval is never seen by the mid-run hook.
	if err := a.cfg.Budget.checkOutput(len(s.m.Output)); err != nil {
		return nil, err
	}

	stage = fault.StageBuild
	injectPanic(inj, fault.StageBuild)
	g := tr.Graph()
	t2 := time.Now()
	st.Build = t2.Sub(t1)
	if err := a.cfg.Budget.checkGraph(g); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	stage = fault.StageSolve
	injectPanic(inj, fault.StageSolve)
	var flow *maxflow.Result
	var cut *maxflow.Cut
	degradedReason := ""
	skelHit := false
	if inj.ExhaustSolver {
		degradedReason = "injected solver-work exhaustion"
	} else {
		var exhausted bool
		flow, exhausted, skelHit = a.solveWithCache(s.solver, g, reuse)
		if exhausted {
			// Degrade to the trivial-cut bound instead of failing; see
			// trivialCutBits for why the partial flow itself is unusable.
			flow = nil
			degradedReason = fmt.Sprintf("solver work budget (%d) exhausted", a.cfg.Budget.SolverWork)
		} else {
			cut = flow.MinCut()
		}
	}
	t3 := time.Now()
	st.Solve = t3.Sub(t2)

	stage = fault.StageReport
	injectPanic(inj, fault.StageReport)
	var lint []static.Finding
	var staticStats *static.Stats
	if sa != nil {
		lint = static.CrossCheck(sa, s.rec)
		staticStats = &sa.Stats
	}
	taintedOut := taintedOutputBits(g)
	bits := trivialCutBits(g)
	rung := RungFull
	if flow != nil {
		bits = flow.Flow
	} else {
		// Solver-budget degradation falls back to the trivial cut of the
		// executed run's graph: record the rung so batch summaries can tell
		// it apart from a full solve (and from no-execution rung answers,
		// which never reach runStages).
		rung = RungTrivial
	}
	res = &Result{
		Bits:              bits,
		Rung:              rung,
		TaintedOutputBits: taintedOut,
		Graph:             g,
		Flow:              flow,
		Cut:               cut,
		Degraded:          degradedReason != "",
		DegradedReason:    degradedReason,
		Output:            s.m.Output,
		ExitCode:          s.m.ExitCode,
		Steps:             s.m.Steps,
		Trap:              trapErr,
		Warnings:          tr.Warnings(),
		Snapshots:         tr.Snapshots(),
		Stats:             tr.Stats(),
		Mem:               tr.MemStats(),
		Lint:              lint,
		StaticStats:       staticStats,
		Cache:             CacheTrace{StaticHit: staticHit, SkeletonHit: skelHit},
		prog:              a.prog,
	}
	st.Report = time.Since(t3)
	st.Total = time.Since(t0)
	res.Stages = st
	return res, nil
}

// Analyze runs one execution through the staged pipeline on a pooled
// session.
func (a *Analyzer) Analyze(in Inputs) (*Result, error) {
	return a.AnalyzeContext(context.Background(), in)
}

// AnalyzeContext is Analyze under a context: cancellation and deadlines
// are polled between pipeline stages and, during execution, every
// Budget.CheckEvery guest steps, so a stuck guest or an impatient caller
// aborts mid-flight with ErrCanceled.
//
// With Config.Cache set, the run is content-addressed: a repeat of a
// previously analyzed (program, config, inputs) triple returns the cached
// Result without drawing a session or running any stage (Result.Cache
// reports "hit", Stages only the lookup time), concurrent misses on one
// key are collapsed to a single computation, and a miss that reuses the
// cached graph skeleton reports "incremental". Errors are never cached.
func (a *Analyzer) AnalyzeContext(ctx context.Context, in Inputs) (*Result, error) {
	// Cheap ladder rungs never execute, never draw a session, and skip the
	// result cache: the static rung is already served by the process-global
	// static cache, so a warm answer is a lookup plus arithmetic.
	if res, ok := a.ladderResult(in); ok {
		return res, nil
	}
	if !a.cacheable() {
		res, err := a.analyzeDirect(ctx, in)
		if err == nil && a.cfg.Cache != nil {
			res.Cache.Disposition = CacheBypass
			res.Cache.BypassReason = "fault-injection"
		}
		return res, err
	}
	key := a.resultKey(in)
	t0 := time.Now()
	v, hit, err := a.cfg.Cache.Do(KindResult, key, func() (any, int64, error) {
		res, err := a.analyzeDirect(ctx, in)
		if err != nil {
			return nil, 0, err
		}
		res.Cache.Key = key.Short()
		if res.Cache.SkeletonHit {
			res.Cache.Disposition = CacheIncremental
		} else {
			res.Cache.Disposition = CacheMiss
		}
		return res, estimateResultBytes(res), nil
	})
	if err != nil {
		return nil, err
	}
	res := v.(*Result)
	if hit {
		// Served from the cache (or coalesced onto another caller's
		// computation): restamp provenance on a copy of the shared value.
		return stampCacheHit(res, time.Since(t0), key), nil
	}
	return res, nil
}

// analyzeDirect runs the pipeline unconditionally on a pooled session.
func (a *Analyzer) analyzeDirect(ctx context.Context, in Inputs) (*Result, error) {
	s := a.acquire()
	defer a.release(s)
	return a.runStages(ctx, s, a.sessionTracker(s), in, a.cfg.Fault.Run(0), true)
}

func (a *Analyzer) sessionTracker(s *session) *taint.Tracker {
	return s.freshTracker(a.taintOptions())
}

// taintOptions resolves the tracker options from the configuration,
// plumbing the engine-level Compact knob through to the tracker.
func (a *Analyzer) taintOptions() taint.Options {
	opts := a.cfg.Taint
	if a.cfg.Compact != 0 {
		opts.Compact = a.cfg.Compact
	}
	return opts
}

// compacting reports whether runs will perform online compaction (which
// requires the periodic check hook to be installed).
func (a *Analyzer) compacting() bool {
	opts := a.taintOptions()
	return opts.Exact && opts.Compact > 0
}

// AnalyzeMulti analyzes several executions together on one session: the
// tracker is kept across runs (taint.Tracker.Reset), so graphs merge by
// code location online and the final bound has the cross-run consistency of
// §3.2. The returned result reflects the combined graph, with per-run
// summaries in Runs; Output, ExitCode, Steps, and Trap are the last run's.
// It is the online reference that AnalyzeBatch's offline merge is tested
// against.
//
// Because the runs accumulate into one tracker, a failed run (over budget,
// stage panic) poisons the shared state and aborts the whole call with
// that run's typed error; AnalyzeBatch isolates failures per run instead.
func (a *Analyzer) AnalyzeMulti(inputs []Inputs) (*Result, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("engine: no inputs")
	}
	if res, ok := a.ladderMulti(inputs); ok {
		return res, nil
	}
	s := a.acquire()
	defer a.release(s)
	tr := a.sessionTracker(s)
	var res *Result
	var agg StageStats
	runs := make([]RunSummary, 0, len(inputs))
	for i, in := range inputs {
		if i > 0 {
			tr.Reset()
		}
		// Only run 0's graph has the repeatable single-run topology; later
		// runs accumulate, so they skip the skeleton cache.
		r, err := a.runStages(context.Background(), s, tr, in, a.cfg.Fault.Run(i), i == 0)
		if err != nil {
			return nil, fmt.Errorf("engine: run %d: %w", i, err)
		}
		res = r
		agg.add(res.Stages)
		runs = append(runs, summarize(i, res))
	}
	res.Runs = runs
	res.Stages = agg
	return res, nil
}

// RunPlain executes prog uninstrumented (the baseline for overhead
// comparisons, and the second machine of the §6.3 lockstep checker). The
// machine escapes to the caller, so it is not drawn from a session pool.
func RunPlain(prog *vm.Program, in Inputs, cfg Config) (*vm.Machine, error) {
	size := cfg.MemSize
	if size == 0 {
		size = vm.DefaultMemSize
	}
	m := vm.NewMachineSize(prog, size)
	if cfg.MaxSteps != 0 {
		m.MaxSteps = cfg.MaxSteps
	}
	m.SecretIn = in.Secret
	m.PublicIn = in.Public
	err := m.Run()
	return m, err
}
