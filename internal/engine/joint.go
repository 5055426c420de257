package engine

import (
	"fmt"
	"time"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/merge"
)

// JointResult is the outcome of merging several per-run graphs and
// solving the joint max flow — the batch bound of §3.2, factored out so
// every merge site (in-process AnalyzeBatch, the fleet coordinator's
// distributed batch) computes it with the same code and therefore the
// same bits.
type JointResult struct {
	// Graph is the merged location-keyed graph the bound was solved on.
	Graph *flowgraph.Graph
	// Flow is the solved max flow; nil when the solver budget was
	// exhausted and Bits fell back to the trivial cut.
	Flow *maxflow.Result
	// Cut is the min cut of the solved flow; nil under the fallback.
	Cut *maxflow.Cut
	// Bits is the joint channel-capacity bound over the merged runs.
	Bits int64
	// Rung is RungFull for a solved flow, RungTrivial for the fallback.
	Rung string
	// TaintedOutputBits is the tainting bound over the merged graph.
	TaintedOutputBits int64
	// Degraded/DegradedReason report the solver-budget fallback.
	Degraded       bool
	DegradedReason string
	// MergeDur and SolveDur time the two stages.
	MergeDur, SolveDur time.Duration
}

// SolveJoint merges per-run graphs in order (§3.2's location-keyed
// survivor merge) and solves the joint bound. Callers pass the surviving
// runs' graphs — trapped and failed runs already excluded — in run
// order, salted when the labels are exact-mode serials (merge.SaltLabels
// with salt = run index + 1, so per-builder serials cannot collide
// across runs). The merge is deterministic in the graph order, so any
// two callers that present the same graphs in the same order get
// bit-identical results regardless of where the runs executed.
//
// solverWork bounds the joint solve (0 = unlimited); on exhaustion the
// bound degrades soundly to the merged graph's trivial cut with
// Rung = RungTrivial, exactly as a budgeted single-process batch would.
func SolveJoint(graphs []*flowgraph.Graph, solverWork int64) *JointResult {
	mStart := time.Now()
	joint := merge.Graphs(graphs...)
	mergeDur := time.Since(mStart)

	sStart := time.Now()
	jr := &JointResult{
		Graph:             joint,
		MergeDur:          mergeDur,
		TaintedOutputBits: taintedOutputBits(joint),
		Bits:              trivialCutBits(joint),
		Rung:              RungFull,
	}
	flow, exhausted := maxflow.NewSolver(maxflow.Dinic).SolveBudgeted(joint, solverWork)
	if exhausted {
		jr.Rung = RungTrivial // joint solver-budget fallback: trivial cut
		jr.Degraded = true
		jr.DegradedReason = degradedSolverReason(solverWork)
	} else {
		jr.Flow = flow
		jr.Cut = flow.MinCut()
		jr.Bits = flow.Flow
	}
	jr.SolveDur = time.Since(sStart)
	return jr
}

func degradedSolverReason(work int64) string {
	return fmt.Sprintf("joint solver work budget (%d) exhausted", work)
}

// CutString renders the joint cut as Result.CutString would for a
// caller with no loaded program: capacities at instruction sites. The
// coordinator uses it — it merges graphs from shards without ever
// loading guest bytecode.
func (jr *JointResult) CutString() string {
	if jr.Cut == nil {
		return ""
	}
	return formatCut(jr.Bits, describeCut(nil, jr.Graph, jr.Cut, nil))
}

// ToResult wraps the joint solve as a Result so callers reuse the
// standard rendering and summary paths. Execution facts (Output, Steps,
// Trap, per-run summaries) are the caller's to fill in.
func (jr *JointResult) ToResult() *Result {
	return &Result{
		Bits:              jr.Bits,
		Rung:              jr.Rung,
		TaintedOutputBits: jr.TaintedOutputBits,
		Graph:             jr.Graph,
		Flow:              jr.Flow,
		Cut:               jr.Cut,
		Degraded:          jr.Degraded,
		DegradedReason:    jr.DegradedReason,
	}
}
