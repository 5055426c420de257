package flowcheck

// guests_flow_test.go pins the max-flow value of every guest program, in
// both construction modes and with context-sensitive labels, plus the
// collapsed graph's size, against the representative inputs of
// guest.SampleInputs. These are the bit-identical guards for refactors of
// the graph core: any change to flowgraph, taint, spqr, merge, or maxflow
// must reproduce every value exactly.

import (
	"testing"

	"flowcheck/internal/core"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
)

// guestFlows holds the pinned per-guest values. The collapsed column is
// the default §5.2 construction; the exact column is the §4.2 streaming
// construction (unique label per dynamic edge). Bits alone can survive a
// label lookup that splits or merges labels, so the collapsed graph's
// shape and the tracker's label and auto-output counts are pinned too,
// along with the context-sensitive (§3.2 calling-context labels) bits and
// edge count.
var guestFlows = []struct {
	name      string
	collapsed int64
	exact     int64

	nodes, edges int // collapsed Graph.NumNodes, NumEdges
	labelled     int // collapsed Stats().LabelledEdges
	autoOutputs  int // collapsed Stats().AutoOutputs

	ctxBits  int64 // ContextSensitive bits
	ctxEdges int   // ContextSensitive Graph.NumEdges
}{
	{"battleship", 6, 6, 201, 245, 247, 48, 6, 245},
	{"calendar", 18, 18, 82, 103, 105, 34, 18, 103},
	{"compress", 1656, 1656, 698, 1271, 1271, 76, 1656, 1419},
	{"count_punct", 9, 9, 141, 221, 222, 12, 9, 221},
	{"divzero", 1, 1, 174, 202, 202, 0, 1, 202},
	{"guessnum", 3, 3, 41, 44, 44, 0, 3, 44},
	{"imagefilter", 316, 316, 688, 1322, 1322, 0, 316, 1322},
	{"interp", 4, 4, 154, 154, 154, 0, 4, 154},
	{"sshauth", 128, 128, 799, 1104, 1104, 0, 128, 1108},
	{"unary", 6, 6, 14, 15, 16, 0, 6, 15},
	{"xserver", 16, 16, 200, 250, 250, 964, 16, 250},
}

func TestAllGuestFlowsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-mode compress is slow")
	}
	for _, tc := range guestFlows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			secret, public, ok := guest.SampleInputs(tc.name)
			if !ok {
				t.Fatalf("no sample inputs for %q", tc.name)
			}
			prog := guest.Program(tc.name)
			in := core.Inputs{Secret: secret, Public: public}

			res, err := core.Analyze(prog, in, core.Config{})
			if err != nil {
				t.Fatalf("collapsed: %v", err)
			}
			if res.Bits != tc.collapsed {
				t.Errorf("collapsed bits = %d, want %d", res.Bits, tc.collapsed)
			}
			if n, e := res.Graph.NumNodes(), res.Graph.NumEdges(); n != tc.nodes || e != tc.edges {
				t.Errorf("collapsed graph = %d nodes, %d edges, want %d, %d", n, e, tc.nodes, tc.edges)
			}
			if s := res.Stats; s.LabelledEdges != tc.labelled || s.AutoOutputs != tc.autoOutputs {
				t.Errorf("collapsed stats: %d labelled edges, %d auto outputs, want %d, %d",
					s.LabelledEdges, s.AutoOutputs, tc.labelled, tc.autoOutputs)
			}

			res, err = core.Analyze(prog, in, core.Config{Taint: taint.Options{ContextSensitive: true}})
			if err != nil {
				t.Fatalf("context-sensitive: %v", err)
			}
			if res.Bits != tc.ctxBits || res.Graph.NumEdges() != tc.ctxEdges {
				t.Errorf("context-sensitive = %d bits, %d edges, want %d, %d",
					res.Bits, res.Graph.NumEdges(), tc.ctxBits, tc.ctxEdges)
			}

			res, err = core.Analyze(prog, in, core.Config{Taint: taint.Options{Exact: true}})
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			if res.Bits != tc.exact {
				t.Errorf("exact bits = %d, want %d", res.Bits, tc.exact)
			}
		})
	}
}
