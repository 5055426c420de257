package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/merge"
	"flowcheck/internal/static"
	"flowcheck/internal/taint"
)

// workers resolves the configured fan-out width for n work items.
func (a *Analyzer) workers(n int) int {
	w := a.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// fanOut runs fn(i) for i in [0, n) across the configured number of worker
// goroutines, each holding one pooled session, and returns the per-index
// errors. Work items are claimed from an atomic counter, so any worker may
// process any index; callers must write results into index-addressed slots
// to stay deterministic.
//
// Sessions are released by defer in both the single- and multi-worker
// paths, and a panic escaping fn is recovered into that index's error
// slot, so no failure mode can leak a session or kill a worker before its
// remaining items run. A run that poisons its session (a recovered panic,
// in fn or deeper in runStages) does not poison the runs after it: the
// worker swaps the quarantined session for a fresh one before taking its
// next item.
func (a *Analyzer) fanOut(n int, fn func(s *session, i int) error) []error {
	errs := make([]error, n)
	call := func(s *session, i int) {
		defer func() {
			if r := recover(); r != nil {
				s.poisoned = true
				errs[i] = &InternalError{Stage: fault.StageFanOut, Value: r, Stack: debug.Stack()}
			}
		}()
		errs[i] = fn(s, i)
	}
	work := func(claim func() int) {
		s := a.acquire()
		defer func() { a.release(s) }()
		for {
			i := claim()
			if i >= n {
				return
			}
			call(s, i)
			if s.poisoned {
				a.release(s) // quarantines; the next item gets a clean session
				s = a.acquire()
			}
		}
	}
	workers := a.workers(n)
	if workers == 1 {
		serial := 0
		work(func() int { i := serial; serial++; return i })
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(func() int { return int(next.Add(1)) - 1 })
		}()
	}
	wg.Wait()
	return errs
}

// AnalyzeBatch analyzes several executions of the program in parallel:
// runs are fanned across worker sessions (Config.Workers, default
// GOMAXPROCS), each executed with a fresh per-worker tracker, and the
// per-run graphs are then merged by code location (internal/merge) and
// solved jointly. The merged bound has the same cross-run soundness as
// AnalyzeMulti's online accumulation (§3.2) — offline merge and online
// accumulation agree — but the expensive Execute/Build/Solve stages run
// concurrently.
//
// The result is deterministic: graphs are merged in run order, so Bits and
// the cut do not depend on worker count or scheduling. As in AnalyzeMulti,
// Output, ExitCode, Steps, and Trap are the last surviving run's; Warnings
// and Snapshots are concatenated in run order; Stats sums across runs;
// Runs holds per-run summaries (with each run's standalone bound).
//
// Failures are isolated per run: a canceled, over-budget, or panicking run
// is recorded in its RunSummary.Err and excluded from the merge, and the
// joint bound covers the surviving runs — still deterministically, since
// the surviving set depends only on the inputs, never on scheduling. Only
// when every run fails (or the batch's own context is canceled) does
// AnalyzeBatch return an error. Note the changed trap semantics versus a
// single Analyze: there the trapped run IS the result (partial but sound),
// while a trapped batch run would silently weaken the joint bound, so it
// too is excluded and recorded in its summary.
func (a *Analyzer) AnalyzeBatch(inputs []Inputs) (*Result, error) {
	return a.AnalyzeBatchContext(context.Background(), inputs)
}

// AnalyzeBatchContext is AnalyzeBatch under a context: cancellation aborts
// in-flight runs at their next step-interval poll and fails the batch with
// ErrCanceled.
func (a *Analyzer) AnalyzeBatchContext(ctx context.Context, inputs []Inputs) (res *Result, err error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("engine: no inputs")
	}
	if res, ok := a.ladderMulti(inputs); ok {
		return res, nil
	}
	start := time.Now()
	// The merge and joint solve below run outside runStages' recovery;
	// guard them with the same stage-boundary contract so an internal
	// panic cannot escape AnalyzeBatch.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &InternalError{Stage: fault.StageMerge, Value: r, Stack: debug.Stack()}
		}
	}()

	perRun := make([]*Result, len(inputs))
	perErr := a.fanOut(len(inputs), func(s *session, i int) error {
		r, err := a.runStages(ctx, s, a.sessionTracker(s), inputs[i], a.cfg.Fault.Run(i), true)
		perRun[i] = r
		return err
	})
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Trapped runs are excluded from the merge along with failed ones: the
	// joint bound is defined over complete surviving runs.
	for i, r := range perRun {
		if perErr[i] == nil && r.Trap != nil {
			perErr[i] = r.Trap
		}
	}

	// Merge surviving per-run graphs in run order (§3.2). Exact-mode
	// builders number edges with per-builder serials that collide across
	// runs, so salt each run's labels to keep them disjoint — matching how
	// a single exact-mode tracker numbers successive runs online. The salt
	// is the run index, not the survivor ordinal, so poisoning run k never
	// relabels run k+1.
	graphs := make([]*flowgraph.Graph, 0, len(inputs))
	var failures []error
	for i, r := range perRun {
		if perErr[i] != nil {
			failures = append(failures, fmt.Errorf("run %d: %w", i, perErr[i]))
			continue
		}
		if a.cfg.Taint.Exact {
			if serr := merge.SaltLabels(r.Graph, uint64(i+1)); serr != nil {
				// An unsaltable graph cannot join the merge without risking
				// label collisions; treat it like any other failed run.
				perErr[i] = serr
				failures = append(failures, fmt.Errorf("run %d: %w", i, serr))
				continue
			}
		}
		graphs = append(graphs, r.Graph)
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("engine: all %d runs failed: %w", len(inputs), errors.Join(failures...))
	}
	// The merge and joint solve are the shared SolveJoint seam: the fleet
	// coordinator calls the same function over shard-returned graphs, which
	// is what makes a distributed batch bit-identical to this path.
	jr := SolveJoint(graphs, a.cfg.Budget.SolverWork)
	res = jr.ToResult()
	res.Runs = make([]RunSummary, 0, len(perRun))
	res.prog = a.prog
	var agg StageStats
	for i, r := range perRun {
		if perErr[i] != nil {
			sum := RunSummary{Run: i, Err: perErr[i]}
			if r != nil { // trapped: the partial execution's facts are known
				sum = summarize(i, r)
				sum.Err = perErr[i]
			}
			res.Runs = append(res.Runs, sum)
			continue
		}
		res.Runs = append(res.Runs, summarize(i, r))
		res.Warnings = append(res.Warnings, r.Warnings...)
		res.Snapshots = append(res.Snapshots, r.Snapshots...)
		res.Lint = mergeFindings(res.Lint, r.Lint)
		if r.StaticStats != nil {
			res.StaticStats = r.StaticStats
		}
		addStats(&res.Stats, r.Stats)
		addMem(&res.Mem, r.Mem)
		agg.add(r.Stages)
		// Execution facts mirror AnalyzeMulti: the last surviving run's.
		res.Output = r.Output
		res.ExitCode = r.ExitCode
		res.Steps = r.Steps
		res.Trap = r.Trap
	}
	agg.Merge = jr.MergeDur
	agg.Solve += jr.SolveDur
	agg.Total = time.Since(start) // wall time, not the sum of stage times
	res.Stages = agg
	return res, nil
}

// mergeFindings appends the findings of one run, deduplicating by kind
// and pc: every run cross-checks against the same cached static
// analysis, so the purely static findings (and any violation triggered
// by more than one input) repeat verbatim across runs.
func mergeFindings(dst, src []static.Finding) []static.Finding {
	type key struct {
		kind static.FindingKind
		pc   int
	}
	seen := make(map[key]bool, len(dst))
	for _, f := range dst {
		seen[key{f.Kind, f.PC}] = true
	}
	for _, f := range src {
		k := key{f.Kind, f.PC}
		if !seen[k] {
			seen[k] = true
			dst = append(dst, f)
		}
	}
	sort.Slice(dst, func(i, j int) bool {
		if dst[i].PC != dst[j].PC {
			return dst[i].PC < dst[j].PC
		}
		return dst[i].Kind < dst[j].Kind
	})
	return dst
}

// addMem folds one run's memory stats into a multi-run aggregate: peak and
// live sizes take the maximum across runs (workers run concurrently, each
// with its own arena), while emission and compaction counters sum.
func addMem(dst *flowgraph.MemStats, m flowgraph.MemStats) {
	if m.LiveNodes > dst.LiveNodes {
		dst.LiveNodes = m.LiveNodes
	}
	if m.LiveEdges > dst.LiveEdges {
		dst.LiveEdges = m.LiveEdges
	}
	if m.PeakLiveNodes > dst.PeakLiveNodes {
		dst.PeakLiveNodes = m.PeakLiveNodes
	}
	if m.PeakLiveEdges > dst.PeakLiveEdges {
		dst.PeakLiveEdges = m.PeakLiveEdges
	}
	dst.TotalNodes += m.TotalNodes
	dst.TotalEdges += m.TotalEdges
	dst.CompactionPasses += m.CompactionPasses
	dst.ReclaimedEdges += m.ReclaimedEdges
	dst.ReclaimedNodes += m.ReclaimedNodes
	dst.RecycledSlots += m.RecycledSlots
	dst.SeriesOps += m.SeriesOps
	dst.ParallelOps += m.ParallelOps
	dst.DeadEnds += m.DeadEnds
}

func addStats(dst *taint.Stats, s taint.Stats) {
	dst.Elements += s.Elements
	dst.LabelledEdges += s.LabelledEdges
	dst.ImplicitEdges += s.ImplicitEdges
	dst.DescriptorFlush += s.DescriptorFlush
	dst.RegionsEntered += s.RegionsEntered
	dst.AutoOutputs += s.AutoOutputs
	dst.OutputBytes += s.OutputBytes
	dst.SecretInputBytes += s.SecretInputBytes
}
