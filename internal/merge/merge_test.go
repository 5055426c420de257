package merge_test

import (
	"errors"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/kraft"
	"flowcheck/internal/lang"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/merge"
	"flowcheck/internal/taint"
)

func chainGraph(site uint32, caps ...int64) *flowgraph.Graph {
	g := flowgraph.New()
	prev := flowgraph.Source
	for i, c := range caps {
		var next flowgraph.NodeID
		if i == len(caps)-1 {
			next = flowgraph.Sink
		} else {
			next = g.AddNode()
		}
		g.AddEdge(prev, next, c, flowgraph.Label{Site: site, Aux: uint8(i)})
		prev = next
	}
	return g
}

func TestMergeIdenticalGraphsSumsCapacity(t *testing.T) {
	g1 := chainGraph(1, 8, 3)
	g2 := chainGraph(1, 8, 3)
	m := merge.Graphs(g1, g2)
	if m.NumEdges() != 2 {
		t.Fatalf("merged edges = %d, want 2", m.NumEdges())
	}
	if f := maxflow.Compute(m, maxflow.Dinic).Flow; f != 6 {
		t.Fatalf("merged flow = %d, want 6 (3+3 at the bottleneck)", f)
	}
}

func TestMergeDisjointLabelsSideBySide(t *testing.T) {
	g1 := chainGraph(1, 5)
	g2 := chainGraph(2, 7)
	m := merge.Graphs(g1, g2)
	if f := maxflow.Compute(m, maxflow.Dinic).Flow; f != 12 {
		t.Fatalf("merged flow = %d, want 12 (parallel paths)", f)
	}
}

func TestMergeSingleGraphIsIdentity(t *testing.T) {
	g := chainGraph(1, 8, 3, 9)
	m := merge.Graphs(g)
	if maxflow.Compute(m, maxflow.Dinic).Flow != maxflow.Compute(g, maxflow.Dinic).Flow {
		t.Fatal("merging one graph changed its flow")
	}
}

func TestMergedFlowAtLeastMaxOfRuns(t *testing.T) {
	// Merging can only add capacity along shared labels: the merged flow is
	// at least each individual flow.
	g1 := chainGraph(1, 8, 2)
	g2 := chainGraph(1, 8, 5)
	m := merge.Graphs(g1, g2)
	f := maxflow.Compute(m, maxflow.Dinic).Flow
	if f < 5 {
		t.Fatalf("merged flow %d below individual max", f)
	}
}

func TestSaltLabelsBoundaries(t *testing.T) {
	mk := func(ctx uint64) *flowgraph.Graph {
		g := flowgraph.New()
		g.AddEdge(flowgraph.Source, flowgraph.Sink, 1, flowgraph.Label{Site: 1, Ctx: ctx})
		return g
	}

	// Valid: max salt with a Ctx below the salt field.
	g := mk(1<<44 - 1)
	if err := merge.SaltLabels(g, merge.MaxSalt); err != nil {
		t.Fatalf("max salt rejected: %v", err)
	}
	if got, want := g.Edges[0].Label.Ctx, (merge.MaxSalt<<44)|(1<<44-1); got != want {
		t.Fatalf("salted Ctx = %#x, want %#x", got, want)
	}

	// Salt too wide for the 20-bit field.
	var serr *merge.SaltError
	err := merge.SaltLabels(mk(0), merge.MaxSalt+1)
	if err == nil {
		t.Fatal("overflowing salt accepted")
	}
	if !errors.As(err, &serr) || serr.Edge != -1 {
		t.Fatalf("err = %#v, want *SaltError with Edge=-1", err)
	}

	// Ctx already occupying the salt field: collision, graph unmodified.
	g = mk(1 << 44)
	err = merge.SaltLabels(g, 1)
	if err == nil {
		t.Fatal("colliding Ctx accepted")
	}
	if !errors.As(err, &serr) || serr.Edge != 0 {
		t.Fatalf("err = %#v, want *SaltError with Edge=0", err)
	}
	if g.Edges[0].Label.Ctx != 1<<44 {
		t.Fatalf("failed SaltLabels modified the graph: Ctx = %#x", g.Edges[0].Label.Ctx)
	}

	// Distinct salts keep two identical exact-mode graphs disjoint.
	g1, g2 := mk(7), mk(7)
	if err := merge.SaltLabels(g1, 1); err != nil {
		t.Fatal(err)
	}
	if err := merge.SaltLabels(g2, 2); err != nil {
		t.Fatal(err)
	}
	if f := maxflow.Compute(merge.Graphs(g1, g2), maxflow.Dinic).Flow; f != 2 {
		t.Fatalf("salted merge flow = %d, want 2 (side-by-side paths)", f)
	}
}

// The paper's §3.2 unsoundness example, end to end: a program that prints
// its secret byte in unary. Per-run analysis yields min(8, n+1) bits, which
// violates Kraft's inequality over all byte values; the merged graph's
// bound is consistent.
const unarySrc = `
int main() {
    char buf[1];
    read_secret(buf, 1);
    char n; n = buf[0];
    while (n--) putc('*');
    return 0;
}`

func TestUnaryBinaryConsistency(t *testing.T) {
	prog, err := lang.Compile("unary.mc", unarySrc)
	if err != nil {
		t.Fatal(err)
	}
	// Per-run bounds for a few representative inputs.
	var perRun []int64
	var graphs []*flowgraph.Graph
	inputs := []byte{0, 1, 2, 5, 150}
	for _, n := range inputs {
		res, err := engine.New(prog, engine.Config{}).Analyze(engine.Inputs{Secret: []byte{n}})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(n) + 1
		if want > 8 {
			want = 8
		}
		if res.Bits != want {
			t.Fatalf("per-run bits for n=%d: %d, want min(8, n+1) = %d", n, res.Bits, want)
		}
		perRun = append(perRun, res.Bits)
		graphs = append(graphs, res.Graph)
	}

	// Hypothetically extending per-run results to all 256 inputs violates
	// Kraft: sum = 503/256 > 1 (§3.2).
	var all []int64
	for n := 0; n < 256; n++ {
		k := int64(n) + 1
		if k > 8 {
			k = 8
		}
		all = append(all, k)
	}
	if kraft.Satisfied(all) {
		t.Fatalf("per-run bounds should violate Kraft, sum = %v", kraft.Sum(all))
	}

	// The merged graph gives one jointly-sound bound >= 8 bits, and using
	// it for every run satisfies Kraft.
	m := merge.Graphs(graphs...)
	f := maxflow.Compute(m, maxflow.Dinic).Flow
	if f < 8 {
		t.Fatalf("merged bound %d < 8 is jointly unsound", f)
	}
	joint := make([]int64, 256)
	for i := range joint {
		joint[i] = f
	}
	if !kraft.Satisfied(joint) {
		t.Fatalf("uniform bound %d violates Kraft?!", f)
	}
}

// Offline merge (this package) agrees with online multi-run analysis
// (Analyzer.AnalyzeMulti / taint.Reset) on the bound.
func TestOfflineMergeMatchesOnline(t *testing.T) {
	prog, err := lang.Compile("unary.mc", unarySrc)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []engine.Inputs{
		{Secret: []byte{0}}, {Secret: []byte{3}}, {Secret: []byte{200}},
	}
	online, err := engine.New(prog, engine.Config{}).AnalyzeMulti(inputs)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*flowgraph.Graph
	for _, in := range inputs {
		res, err := engine.New(prog, engine.Config{Taint: taint.Options{}}).Analyze(in)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, res.Graph)
	}
	offline := maxflow.Compute(merge.Graphs(graphs...), maxflow.Dinic).Flow
	if offline != online.Bits {
		t.Fatalf("offline merge %d != online multi-run %d", offline, online.Bits)
	}
}
