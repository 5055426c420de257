package engine

// Content-addressed caching for the staged pipeline. Each stage consults
// the cache at its boundary under a key derived from exactly the inputs
// that determine its output:
//
//	compile   source/v1(filename, src)           -> *vm.Program   (global)
//	static    static/v1(program)                 -> *static.Analysis (global)
//	skeleton  skeleton/v1(program, config)       -> collapsed-graph CSR layout
//	result    result/v1(program, config, inputs) -> *Result
//
// Compile and static results depend only on the program, so they live in
// one process-global cache shared by every Analyzer — the fix for the old
// per-engine lint cache, where N engines analyzing the same program paid
// the static pass N times. Skeleton and result entries go to the cache the
// caller configures (Config.Cache), which the service shares fleet-wide.
//
// A full result hit skips the whole pipeline: no session is drawn, no
// stage runs, StageStats records only the lookup. An input-only change
// misses the result key but still reuses the program's static analysis
// and, in collapsed mode, the graph skeleton: the collapsed topology is a
// function of code coverage, so when a new input covers the same code the
// prebuilt CSR layout is refilled with this run's capacities and only the
// Execute and capacity re-solve work runs (disposition "incremental").
//
// Cached values are shared across goroutines and must never be mutated;
// hits return a shallow copy of the Result with fresh Stages/Cache fields
// so provenance stamping cannot race. Fault-injection plans make runs
// deliberately nondeterministic, so a non-nil Config.Fault bypasses the
// result cache entirely (disposition "bypass").

import (
	"sync"
	"time"

	"flowcheck/internal/cachekey"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/lang"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/static"
	"flowcheck/internal/vm"
)

// Cache kinds, used for per-stage stat breakdowns.
const (
	KindCompile  = "compile"
	KindStatic   = "static"
	KindSkeleton = "skeleton"
	KindResult   = "result"
	// KindClassGraph holds the shared attributed graph + CSR of a class
	// analysis, keyed by (program, config, inputs) — class-set changes
	// reuse it, re-solving without re-executing. KindClassSet holds the
	// full per-class answer, keyed additionally by the classes.
	KindClassGraph = "classgraph"
	KindClassSet   = "classset"
)

// Cache dispositions reported in Result.Cache and service responses.
const (
	// CacheBypass: a cache was configured but this run was not cacheable
	// (fault injection active).
	CacheBypass = "bypass"
	// CacheMiss: the full pipeline ran and the result was stored.
	CacheMiss = "miss"
	// CacheHit: the result came straight from the cache; no session was
	// touched and no stage ran.
	CacheHit = "hit"
	// CacheIncremental: the result was computed, but on a reused graph
	// skeleton — Execute ran, Build produced a topology-identical graph,
	// and Solve refilled the cached CSR instead of rebuilding it.
	CacheIncremental = "incremental"
)

// CacheTrace records a result's cache provenance.
type CacheTrace struct {
	// Disposition is "", CacheBypass, CacheMiss, CacheHit, or
	// CacheIncremental. Empty means no cache was configured or the result
	// came from a multi-run entry point (which does not result-cache).
	Disposition string
	// BypassReason says why a CacheBypass happened ("fault-injection");
	// empty for every other disposition. Surfaced so operators can tell a
	// deliberately cold service from a broken cache.
	BypassReason string
	// StaticHit reports that the static pre-pass was served from the
	// global program cache rather than computed by this run.
	StaticHit bool
	// SkeletonHit reports that the Solve stage reused the cached collapsed
	// graph layout (see CacheIncremental).
	SkeletonHit bool
	// Key is the abbreviated result key, for log correlation.
	Key string
}

// globalCache holds the program-keyed stages (compile, static) shared by
// every Analyzer in the process. It is intentionally separate from the
// caller-provided result cache: program-derived artifacts are small, hot,
// and correct to share even between callers that want isolated result
// caches (or none).
var globalCache = stagecache.New(stagecache.Options{MaxBytes: 32 << 20})

// GlobalCacheStats snapshots the process-global compile/static cache.
func GlobalCacheStats() stagecache.Stats { return globalCache.Stats() }

// CompileCached compiles MiniC source through the global compile cache:
// recompiling identical source returns the cached (immutable, shareable)
// program. Compile errors are returned but not cached.
func CompileCached(filename, src string) (*vm.Program, error) {
	v, _, err := globalCache.Do(KindCompile, cachekey.Source(filename, src), func() (any, int64, error) {
		p, err := lang.Compile(filename, src)
		if err != nil {
			return nil, 0, err
		}
		return p, estimateProgramBytes(p), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*vm.Program), nil
}

// cacheable reports whether this analyzer's single-run results may go
// through the configured result cache. Fault plans inject nondeterminism
// (panics, stalls, scripted traps), so their results must not be reused.
func (a *Analyzer) cacheable() bool {
	return a.cfg.Cache != nil && a.cfg.Fault == nil
}

// keys returns the memoized program and config keys.
func (a *Analyzer) keys() (prog, cfg cachekey.Key) {
	a.keyOnce.Do(func() {
		a.progKey = cachekey.Program(a.prog)
		a.cfgKey = a.configKey()
	})
	return a.progKey, a.cfgKey
}

// configKey canonicalizes the result-relevant configuration. Fields that
// cannot change the Result are deliberately excluded: Workers and
// SessionHighWater only shape scheduling and pooling, and Fault gates
// cacheability instead of keying it. Everything else — resolved tracker
// options, machine geometry, budgets, lint — changes either the bound or
// the diagnostics, so it keys.
func (a *Analyzer) configKey() cachekey.Key {
	opts := a.taintOptions()
	h := cachekey.New("config/v1").
		Bool(opts.Exact).
		Bool(opts.ContextSensitive).
		Int(int64(opts.MaxDescriptors)).
		Int(int64(opts.MaxExceptions)).
		Bool(opts.WarnImplicit).
		Int(int64(opts.MaxWarnings)).
		Int(int64(opts.Compact)).
		Int(int64(len(opts.SecretRanges)))
	for _, r := range opts.SecretRanges {
		h.Int(int64(r.Off)).Int(int64(r.Len))
	}
	h.Int(int64(a.cfg.MemSize)).
		Uint(a.cfg.MaxSteps).
		Bool(a.cfg.Lint).
		Int(int64(a.cfg.Precision)).
		Int(a.cfg.AdaptiveThreshold)
	b := a.cfg.Budget
	h.Int(int64(b.MaxGraphNodes)).
		Int(int64(b.MaxGraphEdges)).
		Int(int64(b.MaxOutputBytes)).
		Int(b.SolverWork).
		Uint(b.CheckEvery)
	return h.Sum()
}

// resultKey keys one single-run analysis: program x config x inputs.
func (a *Analyzer) resultKey(in Inputs) cachekey.Key {
	p, c := a.keys()
	return cachekey.New("result/v1").Key(p).Key(c).Key(cachekey.Inputs(in.Secret, in.Public)).Sum()
}

// skeletonKey keys the collapsed graph layout: program x config, shared by
// every input (the whole point — input-only changes reuse it).
func (a *Analyzer) skeletonKey() cachekey.Key {
	p, c := a.keys()
	return cachekey.New("skeleton/v1").Key(p).Key(c).Sum()
}

// staticKey keys the static pre-pass: program only.
func (a *Analyzer) staticKey() cachekey.Key {
	p, _ := a.keys()
	return cachekey.New("static/v1").Key(p).Sum()
}

// Cached returns the cached result for in, or ok=false without computing
// anything. The service uses it as the warm-program fast path: a hit is
// answered before the request ever enters admission queuing.
func (a *Analyzer) Cached(in Inputs) (*Result, bool) {
	if !a.cacheable() {
		return nil, false
	}
	key := a.resultKey(in)
	t0 := time.Now()
	v, ok := a.cfg.Cache.Peek(KindResult, key)
	if !ok {
		return nil, false
	}
	return stampCacheHit(v.(*Result), time.Since(t0), key), true
}

// stampCacheHit prepares a cached result for return: a shallow copy (the
// cached value is shared and immutable) whose stage accounting shows only
// the lookup and whose trace marks the full hit.
func stampCacheHit(res *Result, lookup time.Duration, key cachekey.Key) *Result {
	cp := *res
	cp.Stages = StageStats{Lookup: lookup, Total: lookup}
	cp.Cache = CacheTrace{Disposition: CacheHit, Key: key.Short()}
	return &cp
}

// skeleton is the cached solve-stage layout for one (program, config): the
// collapsed graph's topology plus its prebuilt CSR. An incremental solve
// refills only the CSR's capacity column and re-runs the max-flow — the
// layout work (adjacency construction) is what the cache saves, on top of
// witnessing that the topology genuinely repeated.
//
// The CSR's capacity array is mutated in place during a refill, so the
// mutex serializes solvers; contenders fall back to a full build rather
// than queue behind a solve.
type skeleton struct {
	mu       sync.Mutex
	numNodes int
	edges    []flowgraph.Edge // capacities zeroed; topology and labels only
	csr      flowgraph.CSR
}

func newSkeleton(g *flowgraph.Graph) *skeleton {
	sk := &skeleton{numNodes: g.NumNodes()}
	sk.edges = make([]flowgraph.Edge, len(g.Edges))
	copy(sk.edges, g.Edges)
	for i := range sk.edges {
		sk.edges[i].Cap = 0
	}
	g.BuildCSR(&sk.csr)
	return sk
}

// matches reports whether g has exactly the skeleton's topology: same
// node count and the same (From, To, Label) edge sequence. Capacities are
// the per-input part and deliberately not compared.
func (sk *skeleton) matches(g *flowgraph.Graph) bool {
	if g.NumNodes() != sk.numNodes || len(g.Edges) != len(sk.edges) {
		return false
	}
	for i := range sk.edges {
		e, f := &g.Edges[i], &sk.edges[i]
		if e.From != f.From || e.To != f.To || e.Label != f.Label {
			return false
		}
	}
	return true
}

// solveWithCache runs the Solve stage, reusing the cached graph skeleton
// when permitted. reuse lets multi-run entry points opt out (accumulating
// trackers and per-class secret rangings change the topology run to run).
// Exact mode never reuses: its graphs grow with executed instructions and
// carry unique per-edge serials, so a repeat is effectively impossible.
func (a *Analyzer) solveWithCache(solver *maxflow.Solver, g *flowgraph.Graph, reuse bool) (flow *maxflow.Result, exhausted, skelHit bool) {
	budget := a.cfg.Budget.SolverWork
	if !reuse || !a.cacheable() || a.taintOptions().Exact {
		flow, exhausted = solver.SolveBudgeted(g, budget)
		return flow, exhausted, false
	}
	key := a.skeletonKey()
	if v, ok := a.cfg.Cache.Get(KindSkeleton, key); ok {
		sk := v.(*skeleton)
		if sk.matches(g) && sk.mu.TryLock() {
			for i := range g.Edges {
				sk.csr.Cap[2*i] = g.Edges[i].Cap
				sk.csr.Cap[2*i+1] = 0
			}
			flow, exhausted = solver.SolveCSR(&sk.csr, budget)
			sk.mu.Unlock()
			return flow, exhausted, true
		}
	}
	flow, exhausted = solver.SolveBudgeted(g, budget)
	sk := newSkeleton(g)
	a.cfg.Cache.Put(KindSkeleton, key, sk, skeletonBytes(sk))
	return flow, exhausted, false
}

// --- size estimation -------------------------------------------------
//
// The byte budget wants honest-order-of-magnitude charges, not exact heap
// accounting: the estimators price the dominant slices (edges, CSR
// columns, output bytes) at their struct sizes and fold everything else
// into small per-element constants.

const (
	edgeBytes     = 40 // flowgraph.Edge: From+To+Cap+Label{Site,Ctx,Aux,Kind}, padded
	instrBytes    = 16 // vm.Instr
	perDiagBytes  = 64 // warnings, lint findings, run summaries (strings dominate)
	structOverhd  = 512
	edgeFlowBytes = 8
)

func estimateProgramBytes(p *vm.Program) int64 {
	n := int64(structOverhd)
	n += int64(len(p.Code)) * instrBytes
	n += int64(len(p.Data))
	n += int64(len(p.Sites)) * perDiagBytes
	n += int64(len(p.Funcs)) * perDiagBytes
	return n
}

func estimateStaticBytes(sa *static.Analysis) int64 {
	n := int64(structOverhd)
	n += int64(sa.Stats.Blocks) * 64
	n += int64(sa.Stats.Branches) * 32
	n += int64(sa.Stats.Regions) * 48
	n += int64(sa.Stats.Enclosures) * 32
	if sa.Prog != nil {
		n += int64(len(sa.Prog.Code)) / 8 // covered-pc bitset
	}
	if sa.Bound != nil {
		n += int64(len(sa.Bound.Channels)) * perDiagBytes
		n += int64(len(sa.Bound.Notes)) * perDiagBytes
	}
	return n
}

func skeletonBytes(sk *skeleton) int64 {
	n := int64(structOverhd)
	n += int64(len(sk.edges)) * edgeBytes
	e2 := int64(len(sk.edges)) * 2
	n += e2 * (4 + 4 + 8) // CSR HArcs + To + Cap
	n += int64(sk.numNodes+1) * 4
	return n
}

func estimateResultBytes(r *Result) int64 {
	n := int64(structOverhd)
	if r.Graph != nil {
		n += int64(len(r.Graph.Edges)) * edgeBytes
	}
	if r.Flow != nil {
		n += int64(len(r.Flow.EdgeFlow)) * edgeFlowBytes
	}
	if r.Cut != nil {
		n += int64(len(r.Cut.EdgeIndex))*8 + int64(len(r.Cut.SourceSide))
	}
	n += int64(len(r.Output))
	n += int64(len(r.Warnings)) * perDiagBytes
	n += int64(len(r.Snapshots)) * perDiagBytes
	n += int64(len(r.Lint)) * perDiagBytes
	n += int64(len(r.Runs)) * perDiagBytes
	return n
}
