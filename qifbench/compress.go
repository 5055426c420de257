package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/merge"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
	"flowcheck/internal/workload"
)

// Both compress workloads draw their operations from a fixed pool of
// poolSize items over the pi-words corpus; the seed only orders them. A
// fixed pool is what lets every answer be pinned, and cycling through it
// keeps the per-run mix — and so the medians — the same across seeds.
const (
	poolSize = 64

	// fig3-compress: one 4 KiB window per operation, as in Fig. 3.
	fig3Window = 4096
	fig3Stride = 192

	// exact-joint: four 256-byte runs merged per operation (§3.2), sized so
	// one operation takes about as long as a fig3 one.
	exactRuns   = 4
	exactWindow = 256
	exactStride = 47
)

// compressBench runs fig3-compress (collapsed Analyze, one window per
// operation) or exact-joint (exact-mode AnalyzeBatch over exactRuns
// windows), closed loop with one client.
type compressBench struct {
	name   string
	exact  bool
	limit  time.Duration
	corpus []byte
	order  []int // pool items in seeded order; the loop cycles through it

	prog *vm.Program
	an   *engine.Analyzer
}

func newCompress(exact bool) func(seed int64, _ time.Duration, probe bool) (bench, error) {
	return func(seed int64, _ time.Duration, probe bool) (bench, error) {
		b := &compressBench{exact: exact, name: "fig3-compress", limit: fig3Limit}
		if exact {
			b.name, b.limit = "exact-joint", exactLimit
		}
		items := poolSize
		if probe {
			items = 1 // set-up warms on item 0 only
		}
		b.corpus = workload.PiWords(b.corpusLen(items))
		b.order = rand.New(rand.NewSource(seed)).Perm(poolSize)
		return b, nil
	}
}

func (b *compressBench) corpusLen(items int) int {
	if b.exact {
		return (items*exactRuns-1)*exactStride + exactWindow
	}
	return (items-1)*fig3Stride + fig3Window
}

// inputs returns pool item i's runs.
func (b *compressBench) inputs(i int) []engine.Inputs {
	if !b.exact {
		off := i * fig3Stride
		return []engine.Inputs{{Secret: b.corpus[off : off+fig3Window]}}
	}
	in := make([]engine.Inputs, exactRuns)
	for r := range in {
		off := (i*exactRuns + r) * exactStride
		in[r] = engine.Inputs{Secret: b.corpus[off : off+exactWindow]}
	}
	return in
}

func (b *compressBench) config() engine.Config {
	if !b.exact {
		return engine.Config{}
	}
	return engine.Config{Taint: taint.Options{Exact: true}, Workers: min(runtime.GOMAXPROCS(0), exactRuns)}
}

// setup compiles the guest (no process cache), builds the analyzer, and
// warms it with one operation on pool item 0, which the timed loop does
// not count.
func (b *compressBench) setup() error {
	prog, err := lang.Compile("compress.mc", guest.Source("compress"))
	if err != nil {
		return err
	}
	b.prog = prog
	b.an = engine.New(prog, b.config())
	_, err = b.op(0)
	return err
}

func (b *compressBench) close() {}

func (b *compressBench) op(i int) (*engine.Result, error) {
	in := b.inputs(i)
	if b.exact {
		return b.an.AnalyzeBatch(in)
	}
	return b.an.Analyze(in[0])
}

// check is the correctness gate, run outside the timed region: bits and
// exact counts equal the pinned values, and the returned cut is a real
// Source–Sink cut of the returned graph whose capacity is the bits.
func (b *compressBench) check(i int, res *engine.Result) error {
	want := pins.compress(b.name, i)
	var steps uint64
	if b.exact {
		if len(res.Runs) != exactRuns {
			return fmt.Errorf("item %d: %d run summaries, want %d", i, len(res.Runs), exactRuns)
		}
		for _, r := range res.Runs {
			if r.Err != nil {
				return fmt.Errorf("item %d run %d: %w", i, r.Run, r.Err)
			}
			steps += r.Steps
		}
	} else {
		steps = res.Steps
	}
	if res.Bits != want.Bits || steps != want.Steps || len(res.Graph.Edges) != want.Edges {
		return fmt.Errorf("item %d: bits %d steps %d edges %d, pinned %d/%d/%d",
			i, res.Bits, steps, len(res.Graph.Edges), want.Bits, want.Steps, want.Edges)
	}
	if err := checkCut(res.Graph, res.Cut, res.Bits); err != nil {
		return fmt.Errorf("item %d: %w", i, err)
	}
	return nil
}

// checkCut verifies that cut's edges separate Source from Sink in g (no
// positive-capacity path avoids them) and that their capacities sum to
// bits.
func checkCut(g *flowgraph.Graph, cut *maxflow.Cut, bits int64) error {
	if g == nil || cut == nil {
		return errors.New("no graph or cut")
	}
	inCut := make([]bool, len(g.Edges))
	var sum int64
	for _, e := range cut.EdgeIndex {
		if e < 0 || e >= len(g.Edges) || inCut[e] {
			return fmt.Errorf("cut edge index %d invalid or repeated", e)
		}
		inCut[e] = true
		sum += g.Edges[e].Cap
	}
	if sum != bits {
		return fmt.Errorf("cut capacity %d != bits %d", sum, bits)
	}
	n := g.NumNodes()
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, len(g.Edges))
	for i, e := range g.Edges {
		next[i] = head[e.From]
		head[e.From] = int32(i)
	}
	seen := make([]bool, n)
	seen[flowgraph.Source] = true
	queue := []flowgraph.NodeID{flowgraph.Source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for i := head[v]; i >= 0; i = next[i] {
			e := g.Edges[i]
			if inCut[i] || e.Cap <= 0 || seen[e.To] {
				continue
			}
			if e.To == flowgraph.Sink {
				return errors.New("cut does not separate Source from Sink")
			}
			seen[e.To] = true
			queue = append(queue, e.To)
		}
	}
	return nil
}

func (b *compressBench) measure(d time.Duration) (*sample, error) {
	s := &sample{closed: true}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		i := b.order[k%len(b.order)]
		c0 := cpuTime()
		t0 := time.Now()
		res, err := b.op(i)
		lat := time.Since(t0)
		s.cpu += cpuTime() - c0
		if err == nil {
			err = b.check(i, res)
		}
		s.record(lat, err, b.limit)
	}
	return s, nil
}

func (b *compressBench) traceLayers(d time.Duration, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, lm := range layerMetrics {
		out[lm.name] = 0 // ledger, serve, fleet, cache: not on this path
	}

	// Untraced half: the end-to-end loop, plus allocator/GC counters.
	m0 := readMem()
	base, err := b.measure(d / 2)
	if err != nil {
		return nil, err
	}
	runtimeMetrics(out, m0, readMem(), base.attempted)
	if base.failed > 0 {
		return nil, fmt.Errorf("untraced half: %w", base.firstErr)
	}

	// Traced half: each operation is the real engine call followed by a
	// replay of the same inputs through the layers' public functions.
	rp := newReplayer(b.prog, b.exact)
	workers := float64(max(1, b.config().Workers))
	var overhead []float64
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d/2; k++ {
		i := b.order[k%len(b.order)]
		root := tr.begin("op", k, 0)
		e := tr.begin("engine", k, root)
		res, err := b.op(i)
		tr.end(e)
		if err == nil {
			err = b.check(i, res)
		}
		if err != nil {
			return nil, err
		}
		r := tr.begin("replay", k, root)
		rr, err := rp.replay(tr, k, r, b.inputs(i))
		tr.end(r)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if rr.bits != res.Bits {
			return nil, fmt.Errorf("item %d: replay bits %d, engine %d", i, rr.bits, res.Bits)
		}
		engineMS := ms(tr.spans[e-1].dur())
		overhead = append(overhead, engineMS-(ms(rr.perRun)/workers+ms(rr.joint)))
	}
	layerTimes(out, tr)
	out["engine.overhead_ms"] = medianOf(overhead)
	out["trace.overhead_ms"] = tr.medianPerOp("engine") - median(sortedMS(base.lat))

	// Counts on the reference operation (pool item 0), the same in every
	// run whatever the seed.
	ref, err := rp.replay(nil, 0, 0, b.inputs(0))
	if err != nil {
		return nil, err
	}
	out["vm.steps"] = float64(ref.steps)
	out["taint.graph_edges"] = float64(ref.edges)
	if b.exact {
		out["merge.merged_edges"] = float64(ref.merged)
	}
	allocs, err := medianAllocs(func() error { _, err := b.op(0); return err })
	if err != nil {
		return nil, err
	}
	out["runtime.allocs_per_op"] = allocs
	return out, nil
}

// allocCalls is how many calls a reference allocation count is the median
// of: now and then a call pays for rebuilding a pooled session the GC
// dropped, and map growth varies by a few allocations with the hash seed.
const allocCalls = 9

// medianAllocs returns the median heap allocations of one call of f.
func medianAllocs(f func() error) (float64, error) {
	v := make([]float64, 0, allocCalls)
	for i := 0; i < allocCalls; i++ {
		a, err := allocsOf(f)
		if err != nil {
			return 0, err
		}
		v = append(v, float64(a))
	}
	return medianOf(v), nil
}

// layerTimes fills the per-layer time metrics from the replay spans.
func layerTimes(out map[string]float64, tr *tracer) {
	run := tr.perOp("vm.run")
	tainted := tr.perOp("taint.run")
	var self []float64
	for op, t := range tainted {
		self = append(self, t-run[op])
	}
	out["vm.run_ms"] = tr.medianPerOp("vm.run")
	out["vm.reset_us"] = tr.medianCallUS("vm.reset")
	out["taint.run_self_ms"] = medianOf(self)
	out["taint.reset_us"] = tr.medianCallUS("taint.reset")
	out["taint.graph_ms"] = tr.medianPerOp("taint.graph")
	out["flowgraph.csr_ms"] = tr.medianPerOp("flowgraph.csr")
	out["maxflow.solve_ms"] = tr.medianPerOp("maxflow.solve")
	out["merge.graphs_ms"] = tr.medianPerOp("merge.graphs")
}

// replayer re-executes an operation's runs layer by layer, mirroring the
// engine's stages: a plain VM run (the vm layer alone), then reset, a
// tracker-attached run, graph build, CSR layout and solve per run, and for
// exact batches the salted merge and the joint solve.
type replayer struct {
	exact  bool
	plain  *vm.Machine
	m      *vm.Machine
	tk     *taint.Tracker
	solver *maxflow.Solver
	csr    flowgraph.CSR
}

type replayResult struct {
	bits          int64
	steps         uint64
	edges, merged int
	perRun, joint time.Duration // engine-mirroring work per run (summed) and after the runs
}

func newReplayer(prog *vm.Program, exact bool) *replayer {
	return &replayer{
		exact:  exact,
		plain:  vm.NewMachine(prog),
		m:      vm.NewMachine(prog),
		tk:     taint.New(taint.Options{Exact: exact}),
		solver: maxflow.NewSolver(maxflow.Dinic),
	}
}

// timed runs f inside a span when tr is non-nil and returns its duration.
func timed(tr *tracer, name string, op, parent int, f func()) time.Duration {
	if tr == nil {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	id := tr.begin(name, op, parent)
	f()
	tr.end(id)
	return tr.spans[id-1].dur()
}

func (r *replayer) replay(tr *tracer, op, parent int, inputs []engine.Inputs) (replayResult, error) {
	var rr replayResult
	var graphs []*flowgraph.Graph
	for _, in := range inputs {
		r.plain.Reset()
		r.plain.SecretIn, r.plain.PublicIn = in.Secret, in.Public
		var err error
		timed(tr, "vm.run", op, parent, func() { err = r.plain.Run() })
		if err != nil && !isTrap(err) {
			return rr, err
		}
		rr.steps += r.plain.Steps

		rr.perRun += timed(tr, "vm.reset", op, parent, r.m.Reset)
		rr.perRun += timed(tr, "taint.reset", op, parent, r.tk.ResetAll)
		r.tk.Attach(r.m)
		r.m.SecretIn, r.m.PublicIn = in.Secret, in.Public
		rr.perRun += timed(tr, "taint.run", op, parent, func() { err = r.m.Run() })
		if err != nil && !isTrap(err) {
			return rr, err
		}
		var g *flowgraph.Graph
		rr.perRun += timed(tr, "taint.graph", op, parent, func() { g = r.tk.Graph() })
		rr.edges += len(g.Edges)
		var res *maxflow.Result
		rr.perRun += r.solve(tr, op, parent, g, &res)
		rr.bits = res.Flow
		graphs = append(graphs, g)
	}
	if !r.exact {
		return rr, nil
	}
	var joint *flowgraph.Graph
	var err error
	rr.joint += timed(tr, "merge.graphs", op, parent, func() {
		for i, g := range graphs {
			if err = merge.SaltLabels(g, uint64(i+1)); err != nil {
				return
			}
		}
		joint = merge.Graphs(graphs...)
	})
	if err != nil {
		return rr, err
	}
	rr.merged = len(joint.Edges)
	var res *maxflow.Result
	rr.joint += r.solve(tr, op, parent, joint, &res)
	rr.bits = res.Flow
	return rr, nil
}

// solve lays g out as CSR and solves it, as the engine's Solve stage does.
func (r *replayer) solve(tr *tracer, op, parent int, g *flowgraph.Graph, res **maxflow.Result) time.Duration {
	d := timed(tr, "flowgraph.csr", op, parent, func() { g.BuildCSR(&r.csr) })
	d += timed(tr, "maxflow.solve", op, parent, func() {
		*res, _ = r.solver.SolveCSR(&r.csr, 0)
		(*res).MinCut()
	})
	return d
}

func isTrap(err error) bool {
	var t *vm.Trap
	return errors.As(err, &t)
}
