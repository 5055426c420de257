// Command flowcheck analyzes one MiniC program: it runs the program on the
// given secret/public inputs under the quantitative information-flow
// analysis and reports the measured flow bound, the minimum cut, and
// optionally the flow graph in DOT form (paper §2–§6).
//
// Usage:
//
//	flowcheck run prog.mc -secret-file key.bin [-public-file in.bin] [flags]
//	flowcheck run -guest sshauth -secret "..." [flags]
//	flowcheck check prog.mc -secret-file key.bin -cut 12,34 [-budget 128]
//	flowcheck lockstep prog.mc -secret-file key.bin [-dummy "..."]
//	flowcheck infer prog.mc
//	flowcheck disasm prog.mc
//	flowcheck guests
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"flowcheck/internal/check"
	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/infer"
	"flowcheck/internal/lang/parser"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "lockstep":
		err = cmdLockstep(os.Args[2:])
	case "infer":
		err = cmdInfer(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "remote":
		err = cmdRemote(os.Args[2:])
	case "guests":
		for _, n := range guest.Names() {
			fmt.Println(n)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowcheck:", err)
		os.Exit(exitCode(err))
	}
}

// errLint marks a run whose static/dynamic cross-check reported findings.
var errLint = errors.New("lint findings")

// exitCode maps the engine's failure taxonomy to distinct exit codes, so
// scripts can tell a guest that ran out of steps (3) from a timeout (4), an
// exceeded resource budget (5), an internal failure (6), or lint findings
// (7).
func exitCode(err error) int {
	switch {
	case errors.Is(err, engine.ErrStepLimit):
		return 3
	case errors.Is(err, engine.ErrCanceled):
		return 4
	case errors.Is(err, engine.ErrBudget):
		return 5
	case errors.Is(err, engine.ErrInternal):
		return 6
	case errors.Is(err, errLint):
		return 7
	}
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  flowcheck run      [prog.mc] [flags]   measure the information flow of one execution
  flowcheck check    [prog.mc] [flags]   check a run against a cut (tainting mode, §6.2)
  flowcheck lockstep [prog.mc] [flags]   output-comparison check with a shadow copy (§6.3)
  flowcheck infer    [prog.mc]           propose/score enclosure annotations (§8.6)
  flowcheck disasm   [prog.mc]           dump the compiled VM code with source sites
  flowcheck remote   [flags]             analyze via a flowserved/flowcoord service, honoring Retry-After
  flowcheck guests                       list built-in case-study programs`)
}

type inputFlags struct {
	guestName  *string
	secretFile *string
	secretStr  *string
	publicFile *string
	publicStr  *string
}

func addInputFlags(fs *flag.FlagSet) *inputFlags {
	return &inputFlags{
		guestName:  fs.String("guest", "", "use a built-in case-study program instead of a source file"),
		secretFile: fs.String("secret-file", "", "file providing the secret input"),
		secretStr:  fs.String("secret", "", "literal secret input"),
		publicFile: fs.String("public-file", "", "file providing the public input"),
		publicStr:  fs.String("public", "", "literal public input"),
	}
}

func (f *inputFlags) load(fs *flag.FlagSet) (*vm.Program, engine.Inputs, error) {
	var in engine.Inputs
	var err error
	if in.Secret, err = pick(*f.secretFile, *f.secretStr); err != nil {
		return nil, in, err
	}
	if in.Public, err = pick(*f.publicFile, *f.publicStr); err != nil {
		return nil, in, err
	}
	if *f.guestName != "" {
		return guest.Program(*f.guestName), in, nil
	}
	if fs.NArg() < 1 {
		return nil, in, fmt.Errorf("need a source file or -guest name")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return nil, in, err
	}
	prog, err := engine.CompileCached(fs.Arg(0), string(src))
	return prog, in, err
}

// batchInputs assembles the input list for batch mode, or nil for a
// single-run analysis. -secret-dir contributes one run per file (sorted by
// name, sharing the common public input); -runs then replicates the whole
// list.
func batchInputs(in engine.Inputs, runs int, secretDir string) ([]engine.Inputs, error) {
	base := []engine.Inputs{in}
	if secretDir != "" {
		entries, err := os.ReadDir(secretDir)
		if err != nil {
			return nil, err
		}
		base = base[:0]
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			secret, err := os.ReadFile(filepath.Join(secretDir, e.Name()))
			if err != nil {
				return nil, err
			}
			base = append(base, engine.Inputs{Secret: secret, Public: in.Public})
		}
		if len(base) == 0 {
			return nil, fmt.Errorf("no secret files in %s", secretDir)
		}
	}
	if runs < 1 {
		runs = 1
	}
	if secretDir == "" && runs == 1 {
		return nil, nil
	}
	var out []engine.Inputs
	for i := 0; i < runs; i++ {
		out = append(out, base...)
	}
	return out, nil
}

func pick(file, lit string) ([]byte, error) {
	if file != "" {
		return os.ReadFile(file)
	}
	if lit != "" {
		return []byte(lit), nil
	}
	return nil, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	inputs := addInputFlags(fs)
	exact := fs.Bool("exact", false, "disable graph collapsing (per-operation graph)")
	compact := fs.Int("compact", 0, "exact mode: compact the graph in place every N live edges (0 = off)")
	ctx := fs.Bool("ctx", false, "context-sensitive edge labels")
	warn := fs.Bool("warn-implicit", false, "warn on implicit flows outside enclosure regions")
	lint := fs.Bool("lint", false, "run the static pre-pass and cross-check it against the execution (findings exit with code 7)")
	dot := fs.String("dot", "", "write the flow graph in DOT form to this file")
	showOut := fs.Bool("show-output", true, "print the program's output")
	runs := fs.Int("runs", 1, "analyze this many executions of the same inputs jointly (batch mode, §3.2)")
	secretDir := fs.String("secret-dir", "", "batch mode: one run per file in this directory (sorted), each file the run's secret input")
	workers := fs.Int("workers", 0, "batch worker goroutines (0 = GOMAXPROCS)")
	stages := fs.Bool("stages", false, "print per-stage pipeline timings")
	useCache := fs.Bool("cache", false, "run through a content-addressed stage cache and report the disposition (repeat -runs are served from cache)")
	faultSeed := fs.Int64("fault-seed", 0, "inject deterministic pipeline faults from this seed (0 = none); fault runs bypass the stage cache")
	timeout := fs.Duration("timeout", 0, "abort the analysis after this long (exit code 4)")
	maxSteps := fs.Uint64("max-steps", 0, "guest step limit (0 = default; exhaustion is a typed trap, exit code 3)")
	maxGraphNodes := fs.Int("max-graph-nodes", 0, "fail a run whose flow graph exceeds this many nodes (0 = unlimited)")
	maxGraphEdges := fs.Int("max-graph-edges", 0, "fail a run whose flow graph exceeds this many edges (0 = unlimited)")
	maxOutputBytes := fs.Int("max-output-bytes", 0, "fail a run whose public output exceeds this many bytes (0 = unlimited)")
	solverBudget := fs.Int64("solver-budget", 0, "max-flow work budget in arc examinations; exhaustion degrades to the trivial-cut bound (0 = unlimited)")
	precision := fs.String("precision", "", "precision ladder rung: trivial|static|full|adaptive (trivial/static answer a sound upper bound with no execution)")
	threshold := fs.Int64("threshold", 0, "adaptive precision: run the full solve only while the cheap bound exceeds this many bits")
	classesFlag := fs.String("classes", "", `per-class analysis (§10.1): comma-separated "name:off:len" secret classes; one execution, one solve per class, plus the joint bound`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	classes, err := parseClasses(*classesFlag)
	if err != nil {
		return err
	}
	prec, err := engine.ParsePrecision(*precision)
	if err != nil {
		return err
	}
	prog, in, err := inputs.load(fs)
	if err != nil {
		return err
	}
	cfg := engine.Config{
		Taint:             taint.Options{Exact: *exact, ContextSensitive: *ctx, WarnImplicit: *warn},
		Lint:              *lint,
		Workers:           *workers,
		MaxSteps:          *maxSteps,
		Compact:           *compact,
		Precision:         prec,
		AdaptiveThreshold: *threshold,
		Budget: engine.Budget{
			MaxGraphNodes:  *maxGraphNodes,
			MaxGraphEdges:  *maxGraphEdges,
			MaxOutputBytes: *maxOutputBytes,
			SolverWork:     *solverBudget,
		},
	}
	if *faultSeed != 0 {
		n := *runs
		if n < 1 {
			n = 1
		}
		cfg.Fault = fault.Random(*faultSeed, n)
	}
	var cache *stagecache.Cache
	if *useCache {
		cache = stagecache.New(stagecache.Options{})
		cfg.Cache = cache
		if cfg.Fault != nil {
			// Without this notice a faulted run silently loses the cache
			// and looks like a cache bug in timing comparisons.
			fmt.Println("note: fault injection active; the stage cache is bypassed for every run (cache: bypass)")
		}
	}
	runCtx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}
	batch, err := batchInputs(in, *runs, *secretDir)
	if err != nil {
		return err
	}
	a := engine.New(prog, cfg)
	if len(classes) > 0 {
		if batch != nil {
			return fmt.Errorf("-classes cannot combine with batch mode (-runs/-secret-dir)")
		}
		if *precision != "" {
			return fmt.Errorf("-classes cannot combine with -precision: the cheap rungs never execute, so there is no graph to solve per class")
		}
		ca, err := a.AnalyzeClassSetContext(runCtx, in, classes)
		if err != nil {
			return err
		}
		return printClassAnalysis(ca, *stages)
	}
	var res *engine.Result
	if batch != nil {
		res, err = a.AnalyzeBatchContext(runCtx, batch)
	} else {
		res, err = a.AnalyzeContext(runCtx, in)
	}
	if err != nil {
		return err
	}
	if len(res.Runs) > 0 {
		failed := 0
		fmt.Printf("batch of %d runs:\n", len(res.Runs))
		fmt.Println("  run  bits  output  steps")
		for _, r := range res.Runs {
			note := ""
			if r.Trapped {
				note = "  (trapped)"
			}
			if r.Err != nil {
				note = fmt.Sprintf("  EXCLUDED: %v", r.Err)
				failed++
			}
			fmt.Printf("  %3d  %4d  %5dB  %d%s\n", r.Run, r.Bits, r.OutputBytes, r.Steps, note)
		}
		if failed > 0 {
			fmt.Printf("joint (merged by code location, §3.2; %d failed runs excluded):\n", failed)
		} else {
			fmt.Println("joint (merged by code location, §3.2):")
		}
	}
	if res.Trap != nil {
		fmt.Printf("note: guest trapped: %v (results cover the partial run)\n", res.Trap)
	}
	if res.Degraded {
		if res.Graph == nil {
			// A ladder rung answered without executing: a note, not a failure.
			fmt.Printf("note: %s\n", res.DegradedReason)
		} else {
			fmt.Printf("DEGRADED: %s; reporting the trivial-cut upper bound instead of max flow\n", res.DegradedReason)
		}
	}
	if *showOut && res.Graph != nil {
		fmt.Printf("output (%d bytes): %q\n", len(res.Output), abbrev(res.Output))
	}
	secretBytes := len(in.Secret)
	if batch != nil {
		secretBytes = 0
		for _, b := range batch {
			secretBytes += len(b.Secret)
		}
	}
	fmt.Printf("secret input: %d bytes; tainted output bound: %d bits\n",
		secretBytes, res.TaintedOutputBits)
	switch {
	case res.Graph == nil:
		fmt.Printf("upper bound (%s rung): %d bits\n", res.Rung, res.Bits)
	case res.Degraded:
		fmt.Printf("flow bound (trivial-cut fallback): %d bits\n", res.Bits)
		fmt.Println("minimum cut: unavailable (solve degraded)")
	default:
		fmt.Printf("maximum flow: %d bits\n", res.Bits)
		fmt.Printf("minimum cut: %s\n", res.CutString())
	}
	if res.Graph != nil {
		fmt.Printf("graph: %d nodes, %d edges; %d steps executed\n",
			res.Graph.NumNodes(), res.Graph.NumEdges(), res.Steps)
	}
	if m := res.Mem; m.CompactionPasses > 0 {
		fmt.Printf("memory: peak %d live edges of %d emitted (%.1fx); %d compaction passes reclaimed %d edges\n",
			m.PeakLiveEdges, m.TotalEdges, float64(m.TotalEdges)/float64(m.PeakLiveEdges),
			m.CompactionPasses, m.ReclaimedEdges)
	}
	if *stages {
		fmt.Printf("stages: %v\n", res.Stages)
	}
	if cache != nil {
		if res.Cache.Disposition != "" {
			if res.Cache.BypassReason != "" {
				fmt.Printf("cache: %s (%s)\n", res.Cache.Disposition, res.Cache.BypassReason)
			} else {
				fmt.Printf("cache: %s (key %s)\n", res.Cache.Disposition, res.Cache.Key)
			}
		}
		st := cache.Stats()
		tot := st.Totals()
		fmt.Printf("cache: %d hits, %d misses, %d evictions; %d entries, %d bytes of %d\n",
			tot.Hits+tot.Coalesced, tot.Misses, tot.Evictions, st.Entries, st.Bytes, st.MaxBytes)
	}
	if len(res.Snapshots) > 0 {
		fmt.Println("intermediate flows (__flownote):")
		for _, s := range res.Snapshots {
			fmt.Printf("  step %-10d output %4dB  %d bits\n", s.Steps, s.OutputBytes, s.Bits)
		}
	}
	for _, w := range res.Warnings {
		fmt.Println("warning:", w)
	}
	if *lint {
		if st := res.StaticStats; st != nil {
			fmt.Printf("static: %d funcs, %d blocks, %d branches, %d inferred regions, %d enclosure spans\n",
				st.Funcs, st.Blocks, st.Branches, st.Regions, st.Enclosures)
		}
		for _, f := range res.Lint {
			fmt.Println("lint:", f)
		}
		if len(res.Lint) > 0 {
			return fmt.Errorf("%d %w", len(res.Lint), errLint)
		}
		fmt.Println("lint: cross-check clean")
	}
	if *dot != "" && res.Graph == nil {
		fmt.Println("note: no flow graph to dump (rung answer, no execution); skipping -dot")
	} else if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Graph.WriteDOT(f, "flow"); err != nil {
			return err
		}
		fmt.Println("wrote", *dot)
	}
	if errors.Is(res.Trap, engine.ErrStepLimit) {
		// Distinct from a guest fault: the bound above covers only the
		// truncated execution, so surface the exhaustion as exit code 3.
		return fmt.Errorf("guest exhausted its step limit after %d steps: %w", res.Steps, res.Trap)
	}
	return nil
}

// parseClasses parses the -classes flag: comma-separated "name:off:len"
// secret-class specs.
func parseClasses(s string) ([]engine.SecretClass, error) {
	if s == "" {
		return nil, nil
	}
	var out []engine.SecretClass
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 || fields[0] == "" {
			return nil, fmt.Errorf("bad class spec %q (want name:off:len)", part)
		}
		off, err := strconv.Atoi(fields[1])
		if err != nil || off < 0 {
			return nil, fmt.Errorf("bad class spec %q: offset must be a non-negative integer", part)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad class spec %q: length must be a non-negative integer", part)
		}
		out = append(out, engine.SecretClass{Name: fields[0], Off: off, Len: n})
	}
	return out, nil
}

// printClassAnalysis renders a class-set analysis: the per-class table,
// then the joint bound against the per-class sum (the gap is capacity the
// classes crowd each other out of, §10.1).
func printClassAnalysis(ca *engine.ClassAnalysis, stages bool) error {
	fmt.Printf("class analysis: %d classes, %d execution(s)\n",
		len(ca.Classes), ca.Executions)
	var sum int64
	var firstErr error
	failed := 0
	for _, cr := range ca.Classes {
		c := cr.Class
		if cr.Err != nil {
			fmt.Printf("  %-14s [%3d:%3d)  FAILED: %v\n", c.Name, c.Off, c.Off+c.Len, cr.Err)
			failed++
			if firstErr == nil {
				firstErr = cr.Err
			}
			continue
		}
		note := ""
		if cr.Degraded {
			note = fmt.Sprintf("  DEGRADED: %s", cr.DegradedReason)
		}
		fmt.Printf("  %-14s [%3d:%3d)  %s%s\n", c.Name, c.Off, c.Off+c.Len, cr.Cut, note)
		sum += cr.Bits
	}
	if j := ca.Joint; j != nil {
		fmt.Printf("joint bound: %d bits (per-class sum: %d bits)\n", j.Bits, sum)
		if failed == 0 && sum > j.Bits {
			fmt.Printf("note: the classes crowd each other out of %d bits of shared capacity; the joint bound is what a leakage budget should charge\n", sum-j.Bits)
		}
		if stages {
			fmt.Printf("stages (shared execution + joint solve): %v\n", j.Stages)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d classes failed: %w", failed, len(ca.Classes), firstErr)
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	inputs := addInputFlags(fs)
	cutStr := fs.String("cut", "", "comma-separated cut sites (instruction addresses); default: derive by analyzing this run")
	budget := fs.Int64("budget", -1, "policy budget in bits (default: the analyzed flow)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, in, err := inputs.load(fs)
	if err != nil {
		return err
	}
	var cut []uint32
	bud := *budget
	if *cutStr != "" {
		for _, part := range strings.Split(*cutStr, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
			if err != nil {
				return fmt.Errorf("bad cut site %q: %v", part, err)
			}
			cut = append(cut, uint32(v))
		}
	} else {
		res, err := engine.New(prog, engine.Config{}).Analyze(in)
		if err != nil {
			return err
		}
		cut = res.CutSites()
		if bud < 0 {
			bud = res.TaintedOutputBits + res.Bits // site-granular checking over-counts; allow slack
		}
		fmt.Printf("derived cut from analysis (flow %d bits):\n%s", res.Bits, describeSites(prog, cut))
	}
	r, err := check.RunTaintCheck(prog, in.Secret, in.Public, cut, 0)
	if err != nil {
		return err
	}
	fmt.Printf("revealed across cut: %d bits; violations: %d (%d bits)\n",
		r.RevealedBits, len(r.Violations), r.ViolationBits)
	for _, v := range r.Violations {
		fmt.Println("  violation:", v)
	}
	if bud >= 0 {
		if r.OK(bud) {
			fmt.Printf("policy OK (budget %d bits)\n", bud)
		} else {
			fmt.Printf("policy VIOLATED (budget %d bits)\n", bud)
			os.Exit(1)
		}
	}
	return nil
}

func cmdLockstep(args []string) error {
	fs := flag.NewFlagSet("lockstep", flag.ExitOnError)
	inputs := addInputFlags(fs)
	dummyStr := fs.String("dummy", "", "innocuous input for the shadow copy (default: 'x' repeated)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, in, err := inputs.load(fs)
	if err != nil {
		return err
	}
	dummy := []byte(*dummyStr)
	if len(dummy) == 0 {
		dummy = make([]byte, len(in.Secret))
		for i := range dummy {
			dummy[i] = 'x'
		}
	}
	res, err := engine.New(prog, engine.Config{}).Analyze(in)
	if err != nil {
		return err
	}
	cut := res.CutSites()
	fmt.Printf("derived cut from analysis (flow %d bits):\n%s", res.Bits, describeSites(prog, cut))
	r, err := check.RunLockstep(prog, in.Secret, dummy, in.Public, cut, 0)
	if err != nil {
		return err
	}
	if r.OK {
		fmt.Printf("lockstep OK: outputs identical; %d bits transferred at the cut; %d total steps\n",
			r.BitsTransferred, r.Steps)
		return nil
	}
	fmt.Printf("lockstep VIOLATION: %s\n", r.Divergence)
	os.Exit(1)
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	guestName := fs.String("guest", "", "disassemble a built-in case-study program")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var prog *vm.Program
	if *guestName != "" {
		prog = guest.Program(*guestName)
	} else {
		if fs.NArg() < 1 {
			return fmt.Errorf("need a source file or -guest name")
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		prog, err = engine.CompileCached(fs.Arg(0), string(src))
		if err != nil {
			return err
		}
	}
	lastSite := ^uint32(0)
	for pc, in := range prog.Code {
		if in.Site != lastSite {
			fmt.Printf("; %s\n", prog.SiteString(in.Site))
			lastSite = in.Site
		}
		fmt.Printf("%6d  %v\n", pc, in)
	}
	fmt.Printf("; %d instructions, %d data bytes, entry at %d\n",
		len(prog.Code), len(prog.Data), prog.Entry)
	return nil
}

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	guestName := fs.String("guest", "", "analyze a built-in case-study program")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var name, src string
	if *guestName != "" {
		name, src = *guestName, guest.Source(*guestName)
	} else {
		if fs.NArg() < 1 {
			return fmt.Errorf("need a source file or -guest name")
		}
		b, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		name, src = fs.Arg(0), string(b)
	}
	f, err := parser.Parse(name, src)
	if err != nil {
		return err
	}
	rep := infer.AnalyzeFile(name, f)
	fmt.Println(rep)
	for _, item := range rep.Items {
		note := ""
		if item.NeedsLength {
			note = " [needs length]"
		}
		fmt.Printf("  %s %s(%s): %s%s\n", item.Region, item.Func, item.Expr, item.Cat, note)
	}
	props := infer.Propose(f)
	if len(props) > 0 {
		fmt.Println("proposed regions for unannotated implicit-flow sites:")
		for _, p := range props {
			fmt.Printf("  %s %s: __enclose(%s)\n", p.Pos, p.Func, strings.Join(p.Outputs, ", "))
		}
	}
	return nil
}

// describeSites renders cut sites — instruction addresses — with their
// source locations, one per line, via the program's location table.
func describeSites(prog *vm.Program, sites []uint32) string {
	var b strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&b, "  site %d: %s\n", s, prog.LocString(int(s)))
	}
	return b.String()
}

func abbrev(b []byte) []byte {
	if len(b) > 96 {
		return append(append([]byte{}, b[:93]...), "..."...)
	}
	return b
}
