package engine

// Multi-commodity class analysis (paper §10.1): measure, for each kind of
// secret, how much of it one execution reveals. Classes share topology —
// they differ only in which Source edges carry capacity — so the pipeline
// executes the guest ONCE with every secret byte marked and source
// attribution recorded (taint.Options.AttributeSources), then solves one
// per-class capacity view per class against the shared CSR. Per-class cost
// drops from one execution+build+solve to one solve.
//
// Soundness: the execution trace is taint-independent, so the all-marked
// shared graph is an edge superset of any single-class graph, with
// per-label capacities at least as large (taint propagation is monotone in
// the marked set) and endpoint classes at least as merged (more events,
// more label unions — and contracting nodes never lowers max flow). The
// class view gives the class's own source bytes their full 8-bit
// capacities (exactly what the single-class ranging marks), zeroes other
// classes' attributed source capacity, and keeps unattributed source
// capacity (__secret-marked memory, which the ranging path also always
// marks). Max flow is monotone in capacities, so the shared-view bound is
// ≥ the per-class-ranging bound — conservative, never under-reporting.
// The ranged bound is the plain analysis with Config.Taint.SecretRanges
// set to the class, one execution per class; the corpus-wide equivalence
// test runs it as the oracle and enforces shared ≥ ranged on every guest.

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
	"flowcheck/internal/taint"
)

// ClassAnalysis is the result of a class-set analysis.
type ClassAnalysis struct {
	// Classes holds the per-class measurements, in input order.
	Classes []ClassResult
	// Joint is the joint (all-classes-at-once) result of the shared
	// execution — the bound a leakage ledger should charge, since
	// per-class bounds can sum past it (classes share sink capacity: the
	// crowding-out effect). Nil for an empty class set.
	Joint *Result
	// Executions counts guest executions this call performed: 1 for a
	// fresh analysis, 0 when the shared graph came from the cache.
	Executions int
}

// classGraph is the shared artifact behind one (program, config, inputs)
// class analysis: the joint result of the attributed all-marked execution,
// its source attribution, and the prebuilt CSR the per-class solves
// attach to. Immutable after construction (solvers copy capacities into
// their own residuals), so concurrent class solves and cached reuse across
// class sets are safe.
type classGraph struct {
	res    *Result
	srcMap *flowgraph.SourceMap
	csr    flowgraph.CSR
}

// AnalyzeClassSet measures per-class disclosure; see
// AnalyzeClassSetContext.
func (a *Analyzer) AnalyzeClassSet(in Inputs, classes []SecretClass) (*ClassAnalysis, error) {
	return a.AnalyzeClassSetContext(context.Background(), in, classes)
}

// AnalyzeClassSetContext measures, for each secret class, how much of it
// this execution reveals (§10.1), plus the joint bound. Class failures are
// isolated: a failed class carries its typed error in ClassResult.Err
// while the others still report their bounds. Precision is ignored
// (per-class bounds need the per-class flows); the result cache, when
// configured, keys the shared graph by (program, config, inputs) — so a
// changed class set over warm inputs re-solves without re-executing — and
// the full per-class answer by (program, config, inputs, classes).
func (a *Analyzer) AnalyzeClassSetContext(ctx context.Context, in Inputs, classes []SecretClass) (*ClassAnalysis, error) {
	if len(classes) == 0 {
		return &ClassAnalysis{}, nil
	}
	if !a.cacheable() {
		return a.classShared(ctx, in, classes)
	}
	key := a.classSetKey(in, classes)
	var partial *ClassAnalysis
	v, hit, err := a.cfg.Cache.Do(KindClassSet, key, func() (any, int64, error) {
		ca, err := a.classShared(ctx, in, classes)
		if err != nil {
			return nil, 0, err
		}
		for i := range ca.Classes {
			if ca.Classes[i].Err != nil {
				// Per-class failures must reach the caller but not the
				// cache; stash the partial answer and store nothing.
				partial = ca
				return nil, 0, errClassPartial
			}
		}
		return ca, estimateClassAnalysisBytes(ca), nil
	})
	if errors.Is(err, errClassPartial) {
		if partial != nil {
			return partial, nil
		}
		// Coalesced onto another caller's partial computation: recompute.
		return a.classShared(ctx, in, classes)
	}
	if err != nil {
		return nil, err
	}
	ca := v.(*ClassAnalysis)
	if hit {
		cp := *ca // cached value is shared and immutable
		cp.Executions = 0
		return &cp, nil
	}
	return ca, nil
}

// errClassPartial routes a class analysis with per-class failures around
// the result cache without losing the partial answer.
var errClassPartial = errors.New("engine: class analysis partially failed")

// classShared is the one-execution path: build (or fetch) the shared
// attributed graph, then fan the per-class view solves across sessionless
// workers — a solve needs only a solver, and each worker owns one.
func (a *Analyzer) classShared(ctx context.Context, in Inputs, classes []SecretClass) (*ClassAnalysis, error) {
	cg, executions, err := a.classGraphFor(ctx, in)
	if err != nil {
		return nil, err
	}
	n := len(classes)
	out := make([]ClassResult, n)
	var next atomic.Int64
	work := func() {
		solver := maxflow.NewSolver(maxflow.Dinic)
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctxErr(ctx); err != nil {
				out[i] = ClassResult{Class: classes[i], Err: err}
				continue
			}
			out[i] = a.solveClass(solver, cg, classes[i], a.cfg.Fault.Run(i))
		}
	}
	if w := a.workers(n); w == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return &ClassAnalysis{Classes: out, Joint: cg.res, Executions: executions}, nil
}

// classGraphFor returns the shared class graph for in, via the cache when
// configured, and how many guest executions that cost (0 on a hit).
func (a *Analyzer) classGraphFor(ctx context.Context, in Inputs) (*classGraph, int, error) {
	if !a.cacheable() {
		cg, err := a.buildClassGraph(ctx, in)
		return cg, 1, err
	}
	v, hit, err := a.cfg.Cache.Do(KindClassGraph, a.classGraphKey(in), func() (any, int64, error) {
		cg, err := a.buildClassGraph(ctx, in)
		if err != nil {
			return nil, 0, err
		}
		return cg, estimateClassGraphBytes(cg), nil
	})
	if err != nil {
		return nil, 0, err
	}
	if hit {
		return v.(*classGraph), 0, nil
	}
	return v.(*classGraph), 1, nil
}

// buildClassGraph runs the single attributed execution: every secret byte
// marked (no ranging), source attribution on, and the joint solve done by
// the ordinary pipeline. The CSR is built once here; per-class solves
// attach to it read-only.
func (a *Analyzer) buildClassGraph(ctx context.Context, in Inputs) (*classGraph, error) {
	s := a.acquire()
	defer a.release(s)
	tr := taint.New(a.classTaintOptions())
	res, err := a.runStages(ctx, s, tr, in, a.cfg.Fault.Run(0), false)
	if err != nil {
		return nil, err
	}
	cg := &classGraph{res: res, srcMap: tr.SourceMap(res.Graph)}
	res.Graph.BuildCSR(&cg.csr)
	return cg, nil
}

// classTaintOptions is taintOptions with the class machinery applied: all
// bytes marked, attribution recorded, compaction off (it can merge Source
// edges away and lose attribution; taint.New enforces this too).
func (a *Analyzer) classTaintOptions() taint.Options {
	opts := a.taintOptions()
	opts.SecretRanges = nil
	opts.AttributeSources = true
	opts.Compact = 0
	return opts
}

// solveClass runs one class's view solve. Failures are isolated exactly
// like fanOut isolates per-run failures: a panic (genuine or injected) is
// recovered into this class's Err without touching the shared graph or the
// other classes.
func (a *Analyzer) solveClass(solver *maxflow.Solver, cg *classGraph, c SecretClass, inj fault.Injection) (cr ClassResult) {
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			cr = ClassResult{Class: c, Err: &InternalError{Stage: fault.StageSolve, Value: r, Stack: debug.Stack()}}
		}
	}()
	injectPanic(inj, fault.StageSolve)
	view := cg.srcMap.ClassView(cg.res.Graph, flowgraph.ByteRange{Off: c.Off, Len: c.Len})
	if len(view.Edge) == 0 {
		view = nil // class covers every attributed source edge: solve as-is
	}
	cr = ClassResult{Class: c, Rung: RungFull}
	degradedReason := ""
	var flow *maxflow.Result
	if inj.ExhaustSolver {
		degradedReason = "injected solver-work exhaustion"
	} else {
		var exhausted bool
		flow, exhausted = solver.SolveCSRView(&cg.csr, view, a.cfg.Budget.SolverWork)
		if exhausted {
			flow = nil
			degradedReason = fmt.Sprintf("solver work budget (%d) exhausted", a.cfg.Budget.SolverWork)
		}
	}
	if flow != nil {
		cr.Bits = flow.Flow
		cr.Cut = formatCut(cr.Bits, describeCut(a.prog, cg.res.Graph, flow.MinCut(), view))
	} else {
		// Same degradation as runStages, at view-effective capacities: the
		// smaller trivial cut is sound for any capacity assignment.
		cr.Bits = viewTrivialCutBits(cg.res.Graph, view)
		cr.Rung = RungTrivial
		cr.Degraded = true
		cr.DegradedReason = degradedReason
	}
	d := time.Since(t0)
	cr.Stages = StageStats{Solve: d, Total: d}
	return cr
}

// viewTrivialCutBits is trivialCutBits at view-effective capacities.
func viewTrivialCutBits(g *flowgraph.Graph, view *flowgraph.CapacityView) int64 {
	var fromSource, intoSink int64
	for i, e := range g.Edges {
		c := view.Of(i, e.Cap)
		if e.From == flowgraph.Source {
			fromSource += c
		}
		if e.To == flowgraph.Sink {
			intoSink += c
		}
	}
	if intoSink < fromSource {
		return intoSink
	}
	return fromSource
}

// Cache keys for the class path. The class graph is keyed like a result
// (program x config x inputs) but under its own kind — its config slice
// differs (attribution on, ranging off) and its value is the graph+CSR,
// not a Result. The class set adds the classes, so a changed class set
// misses here but still hits the class graph: re-solve, no re-execute.

func (a *Analyzer) classGraphKey(in Inputs) cachekey.Key {
	p, c := a.keys()
	return cachekey.New("classgraph/v1").Key(p).Key(c).Key(cachekey.Inputs(in.Secret, in.Public)).Sum()
}

func (a *Analyzer) classSetKey(in Inputs, classes []SecretClass) cachekey.Key {
	p, c := a.keys()
	h := cachekey.New("classset/v1").Key(p).Key(c).Key(cachekey.Inputs(in.Secret, in.Public))
	h.Int(int64(len(classes)))
	for _, cl := range classes {
		h.Str(cl.Name).Int(int64(cl.Off)).Int(int64(cl.Len))
	}
	return h.Sum()
}

func estimateClassGraphBytes(cg *classGraph) int64 {
	n := estimateResultBytes(cg.res)
	n += int64(len(cg.csr.To)) * (4 + 4 + 8) // HArcs + To + Cap columns
	n += int64(cg.csr.N+1) * 4
	for _, contribs := range cg.srcMap.Contribs {
		n += 8 + int64(len(contribs))*16
	}
	return n
}

func estimateClassAnalysisBytes(ca *ClassAnalysis) int64 {
	n := int64(structOverhd)
	for i := range ca.Classes {
		n += perDiagBytes + int64(len(ca.Classes[i].Cut))
	}
	// Joint is shared with the class-graph entry; charge the strings only.
	return n
}
