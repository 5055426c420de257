// Package experiments regenerates every table and figure in the paper's
// evaluation, as indexed in DESIGN.md. Each experiment returns structured
// results; cmd/flowbench renders them as text, the repository-root
// experiments_test.go asserts their shape against the paper's claims, and
// bench_test.go times them.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"flowcheck/internal/check"
	"flowcheck/internal/engine"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/infer"
	"flowcheck/internal/kraft"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/merge"
	"flowcheck/internal/spqr"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// mustAnalyze runs one analysis, panicking on guest errors (experiment
// inputs are fixed and known-good).
func mustAnalyze(name string, in engine.Inputs, cfg engine.Config) *engine.Result {
	res, err := engine.New(guest.Program(name), cfg).Analyze(in)
	if err != nil {
		panic(fmt.Sprintf("experiment %s: %v", name, err))
	}
	if res.Trap != nil {
		panic(fmt.Sprintf("experiment %s trapped: %v", name, res.Trap))
	}
	return res
}

// --------------------------------------------------------------- Figure 2 ---

// Fig2Result reproduces §2.4: the count_punct example.
type Fig2Result struct {
	Output         string
	Bits           int64 // paper: 9
	WithoutRegions int64 // paper: 1855 (their input); >> 9 here
	TaintBound     int64 // paper: 64
	Cut            string
}

// Fig2Input is the 8-dot/4-question-mark input standing in for the paper's
// own source file.
const Fig2Input = "one. two. three? four. five. six? seven. eight. nine? ten. eleven. twelve?"

// Fig2 runs the §2.4 experiment.
func Fig2() Fig2Result {
	in := engine.Inputs{Secret: []byte(Fig2Input)}
	res := mustAnalyze("count_punct", in, engine.Config{})

	noRegions := strings.ReplaceAll(guest.Source("count_punct"), "__enclose(num_dot, num_qm)", "")
	noRegions = strings.ReplaceAll(noRegions, "__enclose(common, num)", "")
	prog2, err := engine.CompileCached("count_punct_noregions.mc", noRegions)
	if err != nil {
		panic(err)
	}
	res2, err := engine.New(prog2, engine.Config{}).Analyze(in)
	if err != nil {
		panic(err)
	}
	return Fig2Result{
		Output:         string(res.Output),
		Bits:           res.Bits,
		WithoutRegions: res2.Bits,
		TaintBound:     res.TaintedOutputBits,
		Cut:            res.CutString(),
	}
}

// --------------------------------------------------------------- Figure 3 ---

// Fig3Point is one input size of the compression scaling study (§5.3).
type Fig3Point struct {
	InputBytes      int
	CompressedBytes int
	Bits            int64 // measured flow
	InputBits       int64 // 8 * input size (the left-hand bound)
	OutputBits      int64 // 8 * compressed size (the right-hand bound)
	Elapsed         time.Duration
	Steps           uint64
	GraphNodes      int
	GraphEdges      int
}

// Fig3Sizes is the default log-scale sweep.
var Fig3Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// Fig3 compresses pi-in-words at each size under the analysis with
// collapsing enabled, as in §5.3.
func Fig3(sizes []int) []Fig3Point {
	return fig3Corpus(sizes, workload.PiWords)
}

// Fig3Incompressible runs the same sweep on pseudo-random data: LZSS finds
// no matches, the output exceeds the input, and the measured flow follows
// the 8·input curve — the left-hand bound of Figure 3 at every size.
func Fig3Incompressible(sizes []int) []Fig3Point {
	return fig3Corpus(sizes, func(n int) []byte { return workload.RandomBytes(n, 42) })
}

func fig3Corpus(sizes []int, corpus func(int) []byte) []Fig3Point {
	out := make([]Fig3Point, 0, len(sizes))
	for _, n := range sizes {
		in := corpus(n)
		start := time.Now()
		res := mustAnalyze("compress", engine.Inputs{Secret: in}, engine.Config{})
		out = append(out, Fig3Point{
			InputBytes:      n,
			CompressedBytes: len(res.Output),
			Bits:            res.Bits,
			InputBits:       int64(8 * n),
			OutputBits:      int64(8 * len(res.Output)),
			Elapsed:         time.Since(start),
			Steps:           res.Steps,
			GraphNodes:      res.Graph.NumNodes(),
			GraphEdges:      res.Graph.NumEdges(),
		})
	}
	return out
}

// --------------------------------------------------------------- Figure 4 ---

// CaseStudyRow is one row of the Figure 4 inventory.
type CaseStudyRow struct {
	Program    string
	PaperKLOC  string // the original subject's size, for reference
	SecretData string
	GuestLines int
}

// Tab4 builds the case-study inventory.
func Tab4() []CaseStudyRow {
	rows := []CaseStudyRow{
		{"battleship", "6.6 (KBattleship)", "ship locations", 0},
		{"sshauth", "65 (OpenSSH client)", "authentication key", 0},
		{"imagefilter", "290 (ImageMagick)", "original image details", 0},
		{"calendar", "550 (OpenGroupware.org)", "schedule details", 0},
		{"xserver", "440 (X server)", "displayed text", 0},
	}
	for i := range rows {
		rows[i].GuestLines = strings.Count(guest.Source(rows[i].Program), "\n")
	}
	return rows
}

// ------------------------------------------------------------- Battleship ---

// BattleshipResult reproduces §8.1.
type BattleshipResult struct {
	MissBits     int64 // paper: 1
	HitBits      int64 // paper: 2 (non-fatal)
	BuggyBits    int64 // >= 8: the shipTypeAt leak
	GameBits     int64 // a short game, accumulated
	GameShots    int
	PerShotFlows []int64 // real-time snapshots
	MissReply    string
	HitReply     string
}

// Battleship runs the §8.1 measurements.
func Battleship() BattleshipResult {
	secret := workload.BattleshipSecret(7)
	board := boardFrom(secret)
	var miss, hit [2]byte
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			switch board[r*10+c] {
			case 0:
				miss = [2]byte{byte(r), byte(c)}
			case 5:
				hit = [2]byte{byte(r), byte(c)}
			}
		}
	}
	var out BattleshipResult
	res := mustAnalyze("battleship", engine.Inputs{Secret: secret, Public: workload.BattleshipShots(0, [][2]byte{miss})}, engine.Config{})
	out.MissBits, out.MissReply = res.Bits, string(res.Output)
	res = mustAnalyze("battleship", engine.Inputs{Secret: secret, Public: workload.BattleshipShots(0, [][2]byte{hit})}, engine.Config{})
	out.HitBits, out.HitReply = res.Bits, string(res.Output)
	res = mustAnalyze("battleship", engine.Inputs{Secret: secret, Public: workload.BattleshipShots(1, [][2]byte{hit})}, engine.Config{})
	out.BuggyBits = res.Bits

	shots := [][2]byte{{0, 0}, {3, 4}, {5, 5}, {9, 9}, {2, 7}, {4, 4}}
	res = mustAnalyze("battleship", engine.Inputs{Secret: secret, Public: workload.BattleshipShots(0, shots)}, engine.Config{})
	out.GameBits = res.Bits
	out.GameShots = len(shots)
	for _, s := range res.Snapshots {
		out.PerShotFlows = append(out.PerShotFlows, s.Bits)
	}
	return out
}

func boardFrom(placement []byte) [100]byte {
	var board [100]byte
	lens := []int{5, 4, 3, 2}
	for s := 0; s < 4; s++ {
		r, c, o := int(placement[3*s])%10, int(placement[3*s+1])%10, int(placement[3*s+2])&1
		for k := 0; k < lens[s]; k++ {
			var idx int
			if o == 0 {
				idx = r*10 + (c+k)%10
			} else {
				idx = ((r+k)%10)*10 + c
			}
			board[idx] = byte(lens[s])
		}
	}
	return board
}

// ------------------------------------------------------------------- SSH ---

// SSHResult reproduces §8.2.
type SSHResult struct {
	Bits      int64 // paper: 128
	KeyBits   int64 // 512: the secret key's size
	Cut       string
	DigestHex string
}

// SSHInputs are the fixed experiment inputs.
func SSHInputs() engine.Inputs {
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i*37 + 11)
	}
	public := append([]byte("session-id-0123!"), []byte("challenge-bytes!")...)
	return engine.Inputs{Secret: key, Public: public}
}

// SSH runs the §8.2 measurement.
func SSH() SSHResult {
	res := mustAnalyze("sshauth", SSHInputs(), engine.Config{})
	return SSHResult{
		Bits:      res.Bits,
		KeyBits:   512,
		Cut:       res.CutString(),
		DigestHex: fmt.Sprintf("%x", res.Output[:16]),
	}
}

// --------------------------------------------------------------- Figure 5 ---

// Fig5Result reproduces §8.3: information preserved by image transforms.
type Fig5Result struct {
	InputBits    int64 // 8 * (2 + w*h); paper: 375120 for their image
	PixelateBits int64 // paper: 1464
	BlurBits     int64 // paper: 1720
	SwirlBits    int64 // paper: 375120 (= input size)
}

// Fig5 runs the three transforms on the standard 25x25 test image.
func Fig5() Fig5Result {
	img := workload.Image(25, 25, 1)
	r := Fig5Result{InputBits: int64(8 * len(img))}
	r.PixelateBits = mustAnalyze("imagefilter", engine.Inputs{Secret: img, Public: []byte{0}}, engine.Config{}).Bits
	r.BlurBits = mustAnalyze("imagefilter", engine.Inputs{Secret: img, Public: []byte{1}}, engine.Config{}).Bits
	r.SwirlBits = mustAnalyze("imagefilter", engine.Inputs{Secret: img, Public: []byte{2}}, engine.Config{}).Bits
	return r
}

// ---------------------------------------------------------------- Calendar ---

// CalendarResult reproduces §8.4.
type CalendarResult struct {
	SparseBits int64 // paper: 12 (cut at the intersection loop)
	BusyBits   int64 // paper: 18 (cut at the display grid)
	SparseGrid string
	BusyGrid   string
}

// Calendar runs the sparse and busy measurements.
func Calendar() CalendarResult {
	var out CalendarResult
	res := mustAnalyze("calendar", engine.Inputs{
		// One appointment 10:00-12:00 (slots 20..24).
		Secret: workload.CalendarSecret([]workload.Appointment{{StartSlot: 20, EndSlot: 24}}),
		Public: workload.CalendarQuery(1, 9, 18),
	}, engine.Config{})
	out.SparseBits, out.SparseGrid = res.Bits, strings.TrimSpace(string(res.Output))
	res = mustAnalyze("calendar", engine.Inputs{
		Secret: workload.CalendarSecret([]workload.Appointment{
			{StartSlot: 18, EndSlot: 20}, {StartSlot: 21, EndSlot: 23},
			{StartSlot: 25, EndSlot: 27}, {StartSlot: 30, EndSlot: 33},
			{StartSlot: 40, EndSlot: 44},
		}),
		Public: workload.CalendarQuery(5, 9, 18),
	}, engine.Config{})
	out.BusyBits, out.BusyGrid = res.Bits, strings.TrimSpace(string(res.Output))
	return out
}

// ----------------------------------------------------------------- XServer ---

// XServerResult reproduces §8.5.
type XServerResult struct {
	BBoxBits       int64 // paper: ~21 for "Hello, world!"
	TextBits       int64 // 8 * 13: the direct size of the text
	PasteBits      int64 // 256: cut-and-paste is a direct flow
	ExploitBits    int64
	CheckerCaught  bool // the §6.2 checker flags the exploit
	CheckerMessage string
}

// XServer runs the §8.5 measurements, including the checker-vs-exploit
// experiment.
func XServer() XServerResult {
	text := []byte("Hello, world!")
	mkSecret := func(paste []byte) []byte {
		s := append([]byte{}, paste...)
		s = append(s, byte(len(text)))
		return append(s, text...)
	}
	plainPaste := make([]byte, 32)
	copy(plainPaste, "no digits in here at all (safe)!")
	cardPaste := []byte("card=4111111111111111 pin=0000!!")

	var out XServerResult
	res := mustAnalyze("xserver", engine.Inputs{Secret: mkSecret(plainPaste), Public: []byte{0}}, engine.Config{})
	out.BBoxBits = res.Bits
	out.TextBits = int64(8 * len(text))
	res = mustAnalyze("xserver", engine.Inputs{Secret: mkSecret(plainPaste), Public: []byte{1}}, engine.Config{})
	out.PasteBits = res.Bits
	res = mustAnalyze("xserver", engine.Inputs{Secret: mkSecret(cardPaste), Public: []byte{2}}, engine.Config{})
	out.ExploitBits = res.Bits

	// Policy: only the bounding-box channel (the cut of the mode-0 run) is
	// allowed. The exploit run must produce violations under the §6.2
	// checker.
	bbox := mustAnalyze("xserver", engine.Inputs{Secret: mkSecret(cardPaste), Public: []byte{0}}, engine.Config{})
	chk, err := check.RunTaintCheck(guest.Program("xserver"), mkSecret(cardPaste), []byte{2}, bbox.CutSites(), 0)
	if err != nil {
		panic(err)
	}
	out.CheckerCaught = len(chk.Violations) > 0
	if out.CheckerCaught {
		out.CheckerMessage = chk.Violations[0].String()
	}
	return out
}

// --------------------------------------------------------------- Figure 6 ---

// Tab6 runs the §8.6 enclosure-inference pilot over every annotated guest
// and returns one report per program (the Figure 6 rows).
func Tab6() []*infer.Report {
	var out []*infer.Report
	for _, name := range []string{"count_punct", "battleship", "calendar", "compress", "xserver"} {
		f, err := guest.AST(name)
		if err != nil {
			panic(err)
		}
		out = append(out, infer.AnalyzeFile(name, f))
	}
	return out
}

// Tab6Total aggregates the reports into the paper's overall found fraction
// (theirs: 72%).
func Tab6Total(reps []*infer.Report) (hand, found int, fraction float64) {
	for _, r := range reps {
		hand += r.HandAnnots
		found += r.FoundCount
	}
	if hand > 0 {
		fraction = float64(found) / float64(hand)
	}
	return
}

// ----------------------------------------------------------------- SP (§5.1) ---

// SPPoint is one series-parallel reduction measurement.
type SPPoint struct {
	InputBytes   int
	Nodes, Edges int
	CoreFraction float64 // the non-series-parallel share (§5.1: ~16% for bzip2)
	FlowBefore   int64
	FlowAfter    int64
}

// SPStudy reduces the exact (uncollapsed) compression graphs across input
// sizes — the raw per-operation graphs the paper applied SPQR trees to.
// The observed irreducible core is a roughly constant fraction of the
// graph (§5.1 reports ~16% for bzip2; we measure 13-16%).
func SPStudy(sizes []int) []SPPoint {
	var out []SPPoint
	for _, n := range sizes {
		res := mustAnalyze("compress", engine.Inputs{Secret: workload.PiWords(n)},
			engine.Config{Taint: taint.Options{Exact: true}})
		red, st := spqr.Reduce(res.Graph)
		out = append(out, SPPoint{
			InputBytes:   n,
			Nodes:        st.OrigNodes,
			Edges:        st.OrigEdges,
			CoreFraction: st.CoreFraction,
			FlowBefore:   res.Bits,
			FlowAfter:    maxflow.Compute(red, maxflow.Dinic).Flow,
		})
	}
	return out
}

// ------------------------------------------- Online compaction (§5.1/§5.2) ---

// CompactionPoint is one input size of the online-compaction study: an
// exact-mode compress run with Config.Compact enabled. TotalEdges counts
// every edge the execution emitted and grows with executed instructions;
// PeakLiveEdges is the most the arena ever held live at once, which grows
// with the graph's irreducible core — i.e. with static code locations.
// This recovers the memory argument of §5.2's collapsing without giving up
// exact per-operation labels.
type CompactionPoint struct {
	InputBytes       int
	Steps            uint64
	Bits             int64 // cross-checked against the uncompacted run
	TotalEdges       int
	PeakLiveEdges    int
	CompactionPasses int
	ReclaimedEdges   int
	Ratio            float64 // TotalEdges / PeakLiveEdges
}

// CompactionSizes is the default sweep — a prefix of Fig3Sizes, since each
// point also runs the uncompacted exact analysis as its reference.
var CompactionSizes = []int{256, 512, 1024, 2048, 4096}

// Compaction sweeps the Fig. 3 compress workload in exact mode with online
// compaction on, panicking if any compacted bound deviates from the
// uncompacted one.
func Compaction(sizes []int) []CompactionPoint {
	out := make([]CompactionPoint, 0, len(sizes))
	for _, n := range sizes {
		in := engine.Inputs{Secret: workload.PiWords(n)}
		plain := mustAnalyze("compress", in, engine.Config{Taint: taint.Options{Exact: true}})
		res := mustAnalyze("compress", in, engine.Config{
			Taint: taint.Options{Exact: true}, Compact: 4096,
		})
		if res.Bits != plain.Bits {
			panic(fmt.Sprintf("compaction changed the bound at n=%d: %d vs %d", n, res.Bits, plain.Bits))
		}
		p := CompactionPoint{
			InputBytes:       n,
			Steps:            res.Steps,
			Bits:             res.Bits,
			TotalEdges:       res.Mem.TotalEdges,
			PeakLiveEdges:    res.Mem.PeakLiveEdges,
			CompactionPasses: res.Mem.CompactionPasses,
			ReclaimedEdges:   res.Mem.ReclaimedEdges,
		}
		if p.PeakLiveEdges > 0 {
			p.Ratio = float64(p.TotalEdges) / float64(p.PeakLiveEdges)
		}
		out = append(out, p)
	}
	return out
}

// ------------------------------------------------------------- Kraft (§3.2) ---

// KraftResult reproduces the §3.2 consistency experiment on the unary
// printer.
type KraftResult struct {
	PerRunBits  []int64 // min(8, n+1) + exit, per analyzed run
	PerRunSum   float64 // hypothetical sum over all 256 inputs: 503/256 > 1
	PerRunSound bool    // false
	MergedBits  int64   // jointly-sound bound from the merged graph
	MergedSound bool    // true
}

// Kraft runs a few unary-printer inputs individually and merged.
func Kraft() KraftResult {
	prog := guest.Program("unary")
	inputs := []byte{0, 1, 2, 5, 40, 200}
	var out KraftResult
	var graphs []*flowgraph.Graph
	for _, n := range inputs {
		res, err := engine.New(prog, engine.Config{}).Analyze(engine.Inputs{Secret: []byte{n}})
		if err != nil {
			panic(err)
		}
		out.PerRunBits = append(out.PerRunBits, res.Bits)
		graphs = append(graphs, res.Graph)
	}
	var all []int64
	for n := 0; n < 256; n++ {
		k := int64(n) + 1
		if k > 8 {
			k = 8
		}
		all = append(all, k)
	}
	out.PerRunSum = kraft.Sum(all)
	out.PerRunSound = kraft.Satisfied(all)
	out.MergedBits = maxflow.Compute(merge.Graphs(graphs...), maxflow.Dinic).Flow
	uniform := make([]int64, 256)
	for i := range uniform {
		uniform[i] = out.MergedBits
	}
	out.MergedSound = kraft.Satisfied(uniform)
	return out
}

// ------------------------------------------------------- Checking (§6.2/6.3) ---

// CheckResult compares the checking modes on the count_punct policy.
type CheckResult struct {
	AnalysisBits    int64
	TaintRevealed   int64
	TaintViolations int
	LockstepOK      bool
	LockstepBits    int64
	// Step counts proxy the relative overheads (§6.3: lockstep ~2x
	// uninstrumented; §6.2: tainting-class).
	PlainSteps    uint64
	TaintSteps    uint64
	LockstepSteps uint64
}

// Checking runs both §6 checkers against the Figure 2 program and policy.
func Checking() CheckResult {
	secret := []byte(Fig2Input)
	prog := guest.Program("count_punct")
	res := mustAnalyze("count_punct", engine.Inputs{Secret: secret}, engine.Config{})
	var out CheckResult
	out.AnalysisBits = res.Bits

	chk, err := check.RunTaintCheck(prog, secret, nil, res.CutSites(), 0)
	if err != nil {
		panic(err)
	}
	out.TaintRevealed = chk.RevealedBits
	out.TaintViolations = len(chk.Violations)
	out.TaintSteps = chk.Steps

	dummy := make([]byte, len(secret))
	for i := range dummy {
		dummy[i] = 'x'
	}
	ls, err := check.RunLockstep(prog, secret, dummy, nil, res.CutSites(), 0)
	if err != nil {
		panic(err)
	}
	out.LockstepOK = ls.OK
	out.LockstepBits = ls.BitsTransferred
	out.LockstepSteps = ls.Steps

	m, err := engine.RunPlain(prog, engine.Inputs{Secret: secret}, engine.Config{})
	if err != nil {
		panic(err)
	}
	out.PlainSteps = m.Steps
	return out
}

// --------------------------------------------------- Collapsing (§5.2/§5.3) ---

// CollapseResult compares exact and collapsed construction (§5.3 reports
// 3.6e9 pre-collapse nodes vs ~22000 after for their 2.5 MB run).
type CollapseResult struct {
	InputBytes     int
	Steps          uint64
	ExactNodes     int
	ExactEdges     int
	CollapsedNodes int
	CollapsedEdges int
	ExactBits      int64
	CollapsedBits  int64
	CtxNodes       int // context-sensitive collapsing
	CtxBits        int64
}

// Collapse measures graph sizes for one compression input.
func Collapse(n int) CollapseResult {
	in := engine.Inputs{Secret: workload.PiWords(n)}
	exact := mustAnalyze("compress", in, engine.Config{Taint: taint.Options{Exact: true}})
	coll := mustAnalyze("compress", in, engine.Config{})
	ctx := mustAnalyze("compress", in, engine.Config{Taint: taint.Options{ContextSensitive: true}})
	return CollapseResult{
		InputBytes:     n,
		Steps:          coll.Steps,
		ExactNodes:     exact.Graph.NumNodes(),
		ExactEdges:     exact.Graph.NumEdges(),
		CollapsedNodes: coll.Graph.NumNodes(),
		CollapsedEdges: coll.Graph.NumEdges(),
		ExactBits:      exact.Bits,
		CollapsedBits:  coll.Bits,
		CtxNodes:       ctx.Graph.NumNodes(),
		CtxBits:        ctx.Bits,
	}
}

// --------------------------------------------------- Multi-class (§10.1) ---

// MultiClassResult measures each secret class independently (the paper's
// §10.1 future-work direction) and compares two ways to get the per-class
// bounds: the ranged oracle ("reexec": one instrumented execution per
// class with only that class's bytes marked secret) against the shared
// multi-commodity pipeline (one execution, one capacity-view solve per
// class over the shared graph).
type MultiClassResult struct {
	Classes []engine.ClassResult
	Joint   int64
	Sum     int64

	// Per-pipeline cost over Iters repetitions of the whole class set.
	Iters    int
	ReexecMS float64 // mean latency, one execution per class
	SharedMS float64 // mean latency, one execution + per-class solves
	// Executions per class actually performed by each pipeline (1.0 for
	// reexec; 1/N for shared).
	ReexecExecsPerClass float64
	SharedExecsPerClass float64
	// Agree reports that the two pipelines produced identical per-class
	// bounds on this workload.
	Agree bool
}

// MultiClass analyzes a two-appointment calendar per appointment and
// jointly: each appointment's disclosure is bounded separately, and the
// per-class bounds can sum to more than the joint bound because the 18
// grid squares are shared capacity (the crowding-out effect of §10.1).
// Both pipelines run, timed, on the same class set.
func MultiClass() MultiClassResult {
	in := engine.Inputs{
		Secret: workload.CalendarSecret([]workload.Appointment{
			{StartSlot: 20, EndSlot: 24}, {StartSlot: 30, EndSlot: 33},
		}),
		Public: workload.CalendarQuery(2, 9, 18),
	}
	classes := []engine.SecretClass{
		{Name: "appointment-1", Off: 1, Len: 2},
		{Name: "appointment-2", Off: 3, Len: 2},
	}
	prog := guest.Program("calendar")
	const iters = 20

	// Shared: one execution, one capacity-view solve per class.
	var shared *engine.ClassAnalysis
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		ca, err := engine.New(prog, engine.Config{}).AnalyzeClassSet(in, classes)
		if err != nil {
			panic(err)
		}
		shared = ca
	}
	sharedMS := float64(time.Since(t0).Microseconds()) / 1000 / iters

	// Ranged oracle: the plain analysis with only the class's bytes marked
	// secret — one execution per class.
	ranged := make([]int64, len(classes))
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		for k, c := range classes {
			cfg := engine.Config{}
			cfg.Taint.SecretRanges = []taint.StreamRange{{Off: c.Off, Len: c.Len}}
			res, err := engine.New(prog, cfg).Analyze(in)
			if err != nil {
				panic(err)
			}
			ranged[k] = res.Bits
		}
	}
	reexecMS := float64(time.Since(t0).Microseconds()) / 1000 / iters

	joint := mustAnalyze("calendar", in, engine.Config{})
	var sum int64
	agree := true
	for i, c := range shared.Classes {
		sum += c.Bits
		if c.Bits != ranged[i] {
			agree = false
		}
	}
	return MultiClassResult{
		Classes:             shared.Classes,
		Joint:               joint.Bits,
		Sum:                 sum,
		Iters:               iters,
		ReexecMS:            reexecMS,
		SharedMS:            sharedMS,
		ReexecExecsPerClass: 1,
		SharedExecsPerClass: float64(shared.Executions) / float64(len(classes)),
		Agree:               agree,
	}
}

// ------------------------------------------------- Interpreter (§10.3) ---

// InterpResult demonstrates analyzing interpreted code (§10.3): the script
// is public, the interpreted data secret, and the measurement reflects the
// script's computation, not the interpreter's code.
type InterpResult struct {
	MaskNibbleBits int64 // script: OUT(input[3] & 0x0F) -> 4
	XorBits        int64 // script: OUT(input[0] ^ input[1]) -> 8
	DumpBits       int64 // script: OUT three input bytes -> 24
}

// Interp runs three scripts under the bytecode-interpreter guest.
func Interp() InterpResult {
	secret := make([]byte, 64)
	for i := range secret {
		secret[i] = byte(i*29 + 7)
	}
	runScript := func(ops ...byte) int64 {
		public := append([]byte{byte(len(ops))}, ops...)
		return mustAnalyze("interp", engine.Inputs{Secret: secret, Public: public}, engine.Config{}).Bits
	}
	return InterpResult{
		MaskNibbleBits: runScript(1, 3, 2, 0x0F, 5, 7, 0),
		XorBits:        runScript(1, 0, 1, 1, 4, 7, 0),
		DumpBits:       runScript(1, 0, 7, 1, 1, 7, 1, 2, 7, 0),
	}
}

// ----------------------------------------------------------------- Divzero ---

// Divzero reproduces the §3.1 division example: both behaviors reveal one
// bit under the adversarial model.
func Divzero() (zeroBits, nonzeroBits int64) {
	z := mustAnalyze("divzero", engine.Inputs{Secret: []byte{9, 0, 0, 0, 0, 0, 0, 0}}, engine.Config{})
	nz := mustAnalyze("divzero", engine.Inputs{Secret: []byte{9, 0, 0, 0, 3, 0, 0, 0}}, engine.Config{})
	return z.Bits, nz.Bits
}

// ------------------------------------------------ Engine batch throughput ---

// BatchResult measures the staged engine's parallel batch path against
// serial analysis over the same executions of the compression case study
// (ROADMAP: multi-execution throughput as the first scaling axis).
type BatchResult struct {
	Guest      string
	Runs       int
	Workers    int // GOMAXPROCS at measurement time
	JointBits  int64
	PerRunBits []int64

	Serial time.Duration // N independent Analyze calls (fresh state each)
	Multi  time.Duration // online AnalyzeMulti (§3.2 accumulation)
	Batch1 time.Duration // AnalyzeBatch, 1 worker, pooled sessions
	BatchN time.Duration // AnalyzeBatch, GOMAXPROCS workers

	Agree bool // AnalyzeBatch and AnalyzeMulti report the same joint Bits
}

// Batch runs the comparison over `runs` compress executions with growing
// secret inputs.
func Batch(runs int) BatchResult {
	prog := guest.Program("compress")
	inputs := make([]engine.Inputs, runs)
	for i := range inputs {
		inputs[i] = engine.Inputs{Secret: workload.PiWords(512 + 64*i)}
	}
	r := BatchResult{Guest: "compress", Runs: runs, Workers: runtime.GOMAXPROCS(0)}

	t0 := time.Now()
	for _, in := range inputs {
		res, err := engine.New(prog, engine.Config{}).Analyze(in)
		if err != nil {
			panic(err)
		}
		r.PerRunBits = append(r.PerRunBits, res.Bits)
	}
	r.Serial = time.Since(t0)

	t0 = time.Now()
	multi, err := engine.New(prog, engine.Config{}).AnalyzeMulti(inputs)
	if err != nil {
		panic(err)
	}
	r.Multi = time.Since(t0)

	t0 = time.Now()
	b1, err := engine.New(prog, engine.Config{Workers: 1}).AnalyzeBatch(inputs)
	if err != nil {
		panic(err)
	}
	r.Batch1 = time.Since(t0)

	t0 = time.Now()
	bn, err := engine.New(prog, engine.Config{}).AnalyzeBatch(inputs)
	if err != nil {
		panic(err)
	}
	r.BatchN = time.Since(t0)

	r.JointBits = bn.Bits
	r.Agree = bn.Bits == multi.Bits && b1.Bits == multi.Bits
	return r
}

// --------------------------------------------- Engine graceful degradation ---

// DegradePoint is one solver-budget setting: the bound it yields and what
// the solve cost. Degraded points report the trivial-cut fallback.
type DegradePoint struct {
	Budget   int64
	Bits     int64
	Degraded bool
	Solve    time.Duration
}

// DegradeResult sweeps the solver work budget on one compress run, showing
// the robustness tradeoff: every budget returns a sound bound, tightening
// toward the exact max flow as the budget grows.
type DegradeResult struct {
	Guest     string
	ExactBits int64
	Points    []DegradePoint
}

// Degrade measures the budgeted-solve fallback on a compress execution.
func Degrade(n int) DegradeResult {
	prog := guest.Program("compress")
	in := engine.Inputs{Secret: workload.PiWords(n)}
	exact := mustAnalyze("compress", in, engine.Config{})
	r := DegradeResult{Guest: "compress", ExactBits: exact.Bits}
	for _, budget := range []int64{100, 1_000, 10_000, 100_000, 1_000_000} {
		res, err := engine.New(prog, engine.Config{Budget: engine.Budget{SolverWork: budget}}).Analyze(in)
		if err != nil {
			panic(err)
		}
		if res.Bits < exact.Bits {
			panic("degraded bound below exact max flow")
		}
		r.Points = append(r.Points, DegradePoint{
			Budget: budget, Bits: res.Bits, Degraded: res.Degraded, Solve: res.Stages.Solve,
		})
	}
	return r
}
