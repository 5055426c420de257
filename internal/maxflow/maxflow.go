// Package maxflow computes maximum flows and minimum cuts on the flow
// networks of package flowgraph (paper §5, §6.1).
//
// Three exact algorithms are provided: Dinic's algorithm (the one the
// analysis engine runs; near linear on the shallow, layered graphs that
// collapsed executions produce), plus Edmonds–Karp (a simple
// augmenting-path baseline) and FIFO push-relabel, kept as reference
// implementations the tests check Dinic against. All operate on a shared
// residual representation and feed the same min-cut extraction.
//
// A Solver owns the residual network and per-algorithm scratch buffers and
// reuses them across Solve calls, so a long-lived analysis session (one
// engine worker solving many per-run graphs) allocates only the results.
// Compute is the one-shot convenience wrapper.
package maxflow

import (
	"math"

	"flowcheck/internal/flowgraph"
)

// Algorithm selects the max-flow algorithm.
type Algorithm int

// Available algorithms.
const (
	Dinic Algorithm = iota
	EdmondsKarp
	PushRelabel
)

func (a Algorithm) String() string {
	switch a {
	case Dinic:
		return "dinic"
	case EdmondsKarp:
		return "edmonds-karp"
	case PushRelabel:
		return "push-relabel"
	}
	return "unknown"
}

// Result holds a computed maximum flow and its minimum cut. It is
// self-contained: it does not reference solver scratch buffers, so it stays
// valid after the solver moves on to other graphs.
type Result struct {
	// Flow is the value of the maximum flow from Source to Sink, in bits.
	Flow int64
	// EdgeFlow[i] is the flow routed through graph edge i.
	EdgeFlow []int64

	cut *Cut
}

// network is the residual representation over a flowgraph.CSR view: each
// original edge i is arc 2i (forward) and 2i+1 (backward); the topology
// arrays (hstart, harcs, to) alias the CSR — zero-copy — and only resid,
// the one array the algorithms mutate, is owned by the solver and reused
// across attaches.
type network struct {
	n      int
	hstart []int32
	harcs  []int32
	to     []int32
	resid  []int64
}

func (net *network) arcs(v int32) []int32 {
	return net.harcs[net.hstart[v]:net.hstart[v+1]]
}

// attach points the network at a CSR view and initializes residuals from
// its capacities. The CSR must stay unmodified for the duration of the
// solve.
func (net *network) attach(c *flowgraph.CSR) {
	net.n = c.N
	net.hstart = c.HStart
	net.harcs = c.HArcs
	net.to = c.To
	net.resid = i64n(net.resid, len(c.Cap))
	copy(net.resid, c.Cap)
}

// Solver computes maximum flows with reusable buffers: the residual network
// and all per-algorithm scratch persist across Solve calls. A Solver is not
// safe for concurrent use; pooled analysis sessions hold one each.
type Solver struct {
	algo Algorithm
	net  network
	csr  flowgraph.CSR // reusable CSR view for Graph-based solves

	// Work accounting for SolveBudgeted: spent counts arc examinations,
	// limit is the budget (0 = unlimited), exhausted records an aborted
	// solve.
	spent     int64
	limit     int64
	exhausted bool

	// Augmenting-path scratch (Dinic, Edmonds–Karp).
	level   []int32
	iter    []int32
	queue   []int32
	prevArc []int32

	// Push-relabel scratch.
	height  []int32
	newH    []int32
	bfsq    []int32
	excess  []int64
	inQueue []bool
}

// NewSolver returns a solver running the given algorithm.
func NewSolver(algo Algorithm) *Solver { return &Solver{algo: algo} }

// Solve computes the maximum flow and minimum cut of g, reusing the
// solver's buffers. The returned Result (including its cut) is detached
// from the solver and stays valid across subsequent Solve calls.
func (s *Solver) Solve(g *flowgraph.Graph) *Result {
	res, _ := s.SolveBudgeted(g, 0)
	return res
}

// SolveBudgeted is Solve under a work budget, measured in arc examinations
// (work <= 0 means unlimited). When the budget runs out the algorithm stops
// augmenting and the second return value is true; the returned Result then
// holds a partial flow — a LOWER bound on the maximum flow, so it must not
// be used as a leakage upper bound, and its cut is not a minimum cut.
// Callers needing a sound bound under exhaustion should fall back to the
// graph's total sink capacity (the tainting bound, paper §7).
func (s *Solver) SolveBudgeted(g *flowgraph.Graph, work int64) (*Result, bool) {
	g.BuildCSR(&s.csr)
	return s.SolveCSR(&s.csr, work)
}

// SolveCSR solves a graph presented as a CSR view, under the same contract
// as SolveBudgeted. The solver aliases c's topology arrays and copies only
// the capacities into its residual buffer, so callers that already hold a
// CSR (the arena's zero-copy handoff) skip Graph materialization entirely.
// c must not be modified until SolveCSR returns. Edge i of the view is
// Result.EdgeFlow[i] and Cut.EdgeIndex entries index the view's edges.
func (s *Solver) SolveCSR(c *flowgraph.CSR, work int64) (*Result, bool) {
	return s.SolveCSRView(c, nil, work)
}

// SolveCSRView is SolveCSR under a capacity view: the view's per-edge
// capacities replace the CSR's in the residual network before the solve,
// so N per-class solves share one attached CSR (topology untouched, only
// residuals reset per solve). EdgeFlow and the min cut are reported
// against the view-effective capacities; edges the view zeroes never
// appear in the cut. A nil view solves the CSR as-is.
func (s *Solver) SolveCSRView(c *flowgraph.CSR, view *flowgraph.CapacityView, work int64) (*Result, bool) {
	s.net.attach(c)
	if view != nil {
		for k, ei := range view.Edge {
			s.net.resid[2*ei] = view.Cap[k]
			s.net.resid[2*ei+1] = 0
		}
	}
	s.limit, s.spent, s.exhausted = work, 0, false
	var flow int64
	if s.net.n > int(flowgraph.Sink) {
		switch s.algo {
		case EdmondsKarp:
			flow = s.edmondsKarp()
		case PushRelabel:
			flow = s.pushRelabel()
		default:
			flow = s.dinic()
		}
	}
	ne := c.NumEdges()
	res := &Result{Flow: flow, EdgeFlow: make([]int64, ne)}
	cur := viewCursor{view: view}
	for i := 0; i < ne; i++ {
		res.EdgeFlow[i] = cur.cap(i, c.Cap[2*i]) - s.net.resid[2*i]
	}
	res.cut = s.minCut(c, view)
	return res, s.exhausted
}

// viewCursor resolves view-effective capacities for ascending edge
// indices in amortized O(1) per lookup (the view's edge list is sorted).
type viewCursor struct {
	view *flowgraph.CapacityView
	k    int
}

func (c *viewCursor) cap(i int, base int64) int64 {
	v := c.view
	if v == nil {
		return base
	}
	for c.k < len(v.Edge) && v.Edge[c.k] < int32(i) {
		c.k++
	}
	if c.k < len(v.Edge) && v.Edge[c.k] == int32(i) {
		return v.Cap[c.k]
	}
	return base
}

// over reports whether the work budget is exhausted, latching the flag.
func (s *Solver) over() bool {
	if s.limit > 0 && s.spent >= s.limit {
		s.exhausted = true
	}
	return s.exhausted
}

// Compute runs the selected algorithm once and returns the maximum flow
// from flowgraph.Source to flowgraph.Sink.
func Compute(g *flowgraph.Graph, algo Algorithm) *Result {
	return NewSolver(algo).Solve(g)
}

func (s *Solver) dinic() int64 {
	net := &s.net
	n := net.n
	s.level = i32n(s.level, n)
	s.iter = i32n(s.iter, n)
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	level, iter := s.level, s.iter
	src, t := int32(flowgraph.Source), int32(flowgraph.Sink)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[src] = 0
		q := append(s.queue[:0], src)
		for head := 0; head < len(q); head++ {
			v := q[head]
			arcs := net.arcs(v)
			s.spent += int64(len(arcs))
			for _, a := range arcs {
				w := net.to[a]
				if net.resid[a] > 0 && level[w] < 0 {
					level[w] = level[v] + 1
					q = append(q, w)
				}
			}
		}
		s.queue = q[:0]
		return level[t] >= 0
	}

	var dfs func(v int32, limit int64) int64
	dfs = func(v int32, limit int64) int64 {
		if v == t {
			return limit
		}
		for width := net.hstart[v+1] - net.hstart[v]; iter[v] < width; iter[v]++ {
			s.spent++
			a := net.harcs[net.hstart[v]+iter[v]]
			w := net.to[a]
			if net.resid[a] <= 0 || level[w] != level[v]+1 {
				continue
			}
			amt := limit
			if net.resid[a] < amt {
				amt = net.resid[a]
			}
			if pushed := dfs(w, amt); pushed > 0 {
				net.resid[a] -= pushed
				net.resid[a^1] += pushed
				return pushed
			}
		}
		level[v] = -1
		return 0
	}

	var total int64
	for !s.over() && bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for !s.over() {
			pushed := dfs(src, math.MaxInt64)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

func (s *Solver) edmondsKarp() int64 {
	net := &s.net
	n := net.n
	s.prevArc = i32n(s.prevArc, n)
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	prevArc := s.prevArc
	src, t := int32(flowgraph.Source), int32(flowgraph.Sink)
	var total int64
	for !s.over() {
		for i := range prevArc {
			prevArc[i] = -1
		}
		prevArc[src] = -2
		q := append(s.queue[:0], src)
		found := false
	bfs:
		for head := 0; head < len(q); head++ {
			v := q[head]
			s.spent += int64(len(net.arcs(v)))
			for _, a := range net.arcs(v) {
				w := net.to[a]
				if net.resid[a] > 0 && prevArc[w] == -1 {
					prevArc[w] = a
					if w == t {
						found = true
						break bfs
					}
					q = append(q, w)
				}
			}
		}
		s.queue = q[:0]
		if !found {
			return total
		}
		// Find bottleneck along the path.
		bottleneck := int64(math.MaxInt64)
		for v := t; v != src; {
			a := prevArc[v]
			if net.resid[a] < bottleneck {
				bottleneck = net.resid[a]
			}
			v = net.to[a^1]
		}
		for v := t; v != src; {
			a := prevArc[v]
			net.resid[a] -= bottleneck
			net.resid[a^1] += bottleneck
			v = net.to[a^1]
		}
		total += bottleneck
	}
	return total // budget exhausted mid-search: partial flow
}

// Cut is a minimum s-t cut: the set of edges crossing from the source side
// to the sink side of the partition induced by residual reachability.
type Cut struct {
	// EdgeIndex lists indices into the graph's edge slice, in edge order.
	EdgeIndex []int
	// Capacity is the total capacity of the cut edges; by max-flow/min-cut
	// it equals the maximum flow value.
	Capacity int64
	// SourceSide[v] reports whether node v is reachable from Source in the
	// residual graph.
	SourceSide []bool
}

// MinCut returns the minimum cut derived from the computed maximum flow
// (paper §6.1): nodes reachable from Source along residual-capacity paths
// form the source side; crossing edges form the cut. The cut is extracted
// eagerly by Solve, so this is a field access.
func (r *Result) MinCut() *Cut { return r.cut }

// minCut extracts the cut from the terminal residual network. SourceSide
// escapes into the Cut, so it is allocated fresh; the DFS stack is scratch.
// Edge i's endpoints are read off the CSR arc pair: To[2i+1] is the edge's
// origin, To[2i] its destination. Under a view, crossing edges count at
// their view-effective capacity and view-zeroed edges are skipped.
func (s *Solver) minCut(c *flowgraph.CSR, view *flowgraph.CapacityView) *Cut {
	net := &s.net
	seen := make([]bool, net.n)
	stack := append(s.queue[:0], int32(flowgraph.Source))
	seen[flowgraph.Source] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range net.arcs(v) {
			if w := net.to[a]; net.resid[a] > 0 && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	s.queue = stack[:0]
	cut := &Cut{SourceSide: seen}
	cur := viewCursor{view: view}
	for i, ne := 0, c.NumEdges(); i < ne; i++ {
		if seen[c.To[2*i+1]] && !seen[c.To[2*i]] {
			capi := cur.cap(i, c.Cap[2*i])
			if view != nil && capi == 0 {
				continue
			}
			cut.EdgeIndex = append(cut.EdgeIndex, i)
			cut.Capacity += capi
		}
	}
	return cut
}

// Edges returns the graph edges selected by the cut.
func (c *Cut) Edges(g *flowgraph.Graph) []flowgraph.Edge {
	out := make([]flowgraph.Edge, len(c.EdgeIndex))
	for i, idx := range c.EdgeIndex {
		out[i] = g.Edges[idx]
	}
	return out
}

// i32n returns a length-n []int32, reusing s's backing array if it fits.
func i32n(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func i64n(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func booln(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
