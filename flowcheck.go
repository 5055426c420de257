// Package flowcheck is a from-scratch reproduction of
//
//	Stephen McCamant and Michael D. Ernst.
//	Quantitative Information Flow as Network Flow Capacity. PLDI 2008.
//
// It measures how many bits of a program's secret inputs are revealed by
// its public outputs: an execution is observed under a bit-level dynamic
// analysis that builds a flow network (edges are values with bit
// capacities; implicit flows from branches and pointer operations are
// routed through enclosure regions and an output chain), and the maximum
// Source-to-Sink flow is a sound upper bound on the information revealed.
// The dual minimum cut supports two cheap checking modes for deployed
// programs.
//
// Guest programs are written in MiniC (a C subset with the paper's
// enclosure-region annotations) and executed on a 32-bit VM standing in
// for the paper's Valgrind/x86 substrate; see DESIGN.md for the full
// architecture and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	res, err := flowcheck.AnalyzeSource("demo.mc", src, flowcheck.Inputs{Secret: key}, flowcheck.Config{})
//	if err != nil { ... }
//	fmt.Printf("%d bits revealed; cut: %s\n", res.Bits, res.CutString())
package flowcheck

import (
	"flowcheck/internal/engine"
	"flowcheck/internal/lang"
	"flowcheck/internal/static"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

// Re-exported types: the analyzer configuration and results.
type (
	// Config controls an analysis run.
	Config = engine.Config
	// Inputs is the secret/public input pair of one execution.
	Inputs = engine.Inputs
	// Result reports the measured flow, the graph, and the minimum cut.
	Result = engine.Result
	// TaintOptions configures the tracker (collapsing, context
	// sensitivity, lazy-region limits, diagnostics).
	TaintOptions = taint.Options
	// Program is a compiled MiniC guest program.
	Program = vm.Program
	// Analyzer is the staged analysis engine: it binds a program to a
	// configuration and reuses pooled sessions (guest memory, tracker,
	// solver buffers) across runs. Its methods cover every call shape:
	// context-bounded runs, the online §3.2 merge (AnalyzeMulti), and the
	// cache lookup (Cached).
	Analyzer = engine.Analyzer
	// RunSummary is the per-execution record of a multi-run analysis.
	RunSummary = engine.RunSummary
	// StageStats is the per-stage timing breakdown of an analysis.
	StageStats = engine.StageStats
	// SecretClass names one kind of secret within the secret input (§10.1).
	SecretClass = engine.SecretClass
	// ClassResult is the per-class disclosure measurement.
	ClassResult = engine.ClassResult
	// ClassAnalysis is a class-set analysis: per-class bounds, the joint
	// bound, and how many guest executions the call performed.
	ClassAnalysis = engine.ClassAnalysis
	// Budget bounds the resources one analysis run may consume
	// (Config.Budget); the zero value is unlimited.
	Budget = engine.Budget
	// Finding is one static/dynamic cross-check violation reported on
	// Result.Lint when Config.Lint is set.
	Finding = static.Finding
	// StaticStats summarizes the static pre-pass behind Config.Lint.
	StaticStats = static.Stats
	// Precision selects the ladder rung an analysis answers from
	// (Config.Precision): a sound static bound with no execution, or the
	// full measured solve.
	Precision = engine.Precision
)

// Precision-ladder modes for Config.Precision, and the rung names
// recorded in Result.Rung.
const (
	// PrecisionFull always runs the full dynamic solve (the default).
	PrecisionFull = engine.PrecisionFull
	// PrecisionTrivial answers 8·len(secret) bits with no execution.
	PrecisionTrivial = engine.PrecisionTrivial
	// PrecisionStatic answers the static capacity bound with no execution.
	PrecisionStatic = engine.PrecisionStatic
	// PrecisionAdaptive answers the cheapest rung whose bound is at most
	// Config.AdaptiveThreshold bits, escalating to the full solve last.
	PrecisionAdaptive = engine.PrecisionAdaptive

	// RungTrivial marks an 8·len(secret) answer.
	RungTrivial = engine.RungTrivial
	// RungStatic marks a static capacity-bound answer, no execution.
	RungStatic = engine.RungStatic
	// RungFull marks a solved maximum flow.
	RungFull = engine.RungFull
)

// ParsePrecision parses a precision name ("", "full", "trivial",
// "static", "adaptive") into a Precision.
func ParsePrecision(s string) (Precision, error) { return engine.ParsePrecision(s) }

// TrivialBoundBits is the trivial rung's bound: 8·secretLen bits.
func TrivialBoundBits(secretLen int) int64 { return engine.TrivialBoundBits(secretLen) }

// The failure taxonomy: every analysis failure matches exactly one of
// these via errors.Is. Guest traps are reported on Result.Trap (the
// partial run stays sound); solver-budget exhaustion degrades the result
// (Result.Degraded) instead of failing it.
var (
	// ErrStepLimit marks a guest that exhausted its step budget
	// (match against Result.Trap).
	ErrStepLimit = engine.ErrStepLimit
	// ErrBudget marks a run that exceeded a resource budget.
	ErrBudget = engine.ErrBudget
	// ErrCanceled marks a run aborted by its context.
	ErrCanceled = engine.ErrCanceled
	// ErrInternal marks a recovered pipeline-stage panic.
	ErrInternal = engine.ErrInternal
)

// Compile compiles MiniC source to a guest program.
func Compile(filename, src string) (*Program, error) { return lang.Compile(filename, src) }

// NewAnalyzer creates a reusable staged analyzer for p; prefer it over
// repeated Analyze calls when analyzing many inputs of the same program.
func NewAnalyzer(p *Program, cfg Config) *Analyzer { return engine.New(p, cfg) }

// Analyze runs one execution of a compiled program under the analysis.
func Analyze(p *Program, in Inputs, cfg Config) (*Result, error) {
	return engine.New(p, cfg).Analyze(in)
}

// AnalyzeSource compiles (through the process-global compile cache) and
// analyzes MiniC source in one step.
func AnalyzeSource(filename, src string, in Inputs, cfg Config) (*Result, error) {
	p, err := engine.CompileCached(filename, src)
	if err != nil {
		return nil, err
	}
	return Analyze(p, in, cfg)
}

// AnalyzeBatch analyzes several executions in parallel across worker
// sessions (cfg.Workers, default GOMAXPROCS), merging the per-run graphs
// by code location so the joint bound keeps the cross-run soundness of
// §3.2. The result is deterministic regardless of worker count.
func AnalyzeBatch(p *Program, inputs []Inputs, cfg Config) (*Result, error) {
	return engine.New(p, cfg).AnalyzeBatch(inputs)
}

// AnalyzeClassSet measures, for each kind of secret, how much of it one
// execution reveals (§10.1): the guest executes once and each class is a
// capacity-view solve over the shared graph. The answer carries the
// per-class bounds, the joint bound, and the execution count.
func AnalyzeClassSet(p *Program, in Inputs, classes []SecretClass, cfg Config) (*ClassAnalysis, error) {
	return engine.New(p, cfg).AnalyzeClassSet(in, classes)
}
