package serve_test

import (
	"encoding/base64"
	"reflect"
	"strings"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/serve"
)

func wireTestGraph() *flowgraph.Graph {
	g := flowgraph.New()
	g.EnsureNodes(5)
	g.AddEdge(flowgraph.Source, 2, 8, flowgraph.Label{Site: 10, Kind: flowgraph.KindInput})
	g.AddEdge(2, 3, 1<<40, flowgraph.Label{Site: 11, Ctx: 0xdeadbeef, Aux: 2})
	g.AddEdge(3, flowgraph.Sink, 7, flowgraph.Label{Site: 12, Kind: flowgraph.KindOutput})
	return g
}

func TestWireGraphRoundTrip(t *testing.T) {
	g := wireTestGraph()
	w := serve.EncodeGraph(g, true)
	if w.Nodes != g.NumNodes() || w.Edges != g.NumEdges() || !w.Exact {
		t.Fatalf("wire header %+v does not match graph (%d nodes, %d edges)", w, g.NumNodes(), g.NumEdges())
	}
	got, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() {
		t.Fatalf("decoded %d nodes, want %d", got.NumNodes(), g.NumNodes())
	}
	if !reflect.DeepEqual(got.Edges, g.Edges) {
		t.Fatalf("decoded edges differ:\n got %+v\nwant %+v", got.Edges, g.Edges)
	}
}

// The wire format must survive a real engine-produced graph exactly —
// edge order included, since order is what keys the deterministic merge.
func TestWireGraphRoundTripEngineGraph(t *testing.T) {
	res, err := engine.New(guest.Program("count_punct"), engine.Config{}).Analyze(engine.Inputs{Secret: []byte("hello, world")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := serve.EncodeGraph(res.Graph, false).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Edges, res.Graph.Edges) {
		t.Fatalf("engine graph did not survive the wire (%d vs %d edges)", got.NumEdges(), res.Graph.NumEdges())
	}
}

func TestEncodeGraphNil(t *testing.T) {
	if serve.EncodeGraph(nil, true) != nil {
		t.Fatal("nil graph must encode to nil")
	}
	var w *serve.WireGraph
	if _, err := w.Decode(); err == nil {
		t.Fatal("nil wire graph must fail to decode")
	}
}

// Corrupt and adversarial payloads must fail with errors, never panic:
// the coordinator decodes bytes that crossed a network.
func TestWireGraphDecodeRejectsCorruption(t *testing.T) {
	good := serve.EncodeGraph(wireTestGraph(), false)
	raw, _ := base64.StdEncoding.DecodeString(good.Data)

	corrupt := func(name string, mutate func(w *serve.WireGraph)) {
		t.Helper()
		w := *good
		mutate(&w)
		if _, err := w.Decode(); err == nil {
			t.Errorf("%s: decode succeeded on corrupt payload", name)
		}
	}

	corrupt("not base64", func(w *serve.WireGraph) { w.Data = "!!!" })
	corrupt("bad magic", func(w *serve.WireGraph) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		w.Data = base64.StdEncoding.EncodeToString(bad)
	})
	corrupt("truncated", func(w *serve.WireGraph) {
		w.Data = base64.StdEncoding.EncodeToString(raw[:len(raw)-3])
	})
	corrupt("edge count mismatch", func(w *serve.WireGraph) { w.Edges++ })
	corrupt("too few nodes", func(w *serve.WireGraph) { w.Nodes = 1 })
	corrupt("endpoint out of range", func(w *serve.WireGraph) { w.Nodes = 3 }) // edge 2→3 now dangles
	corrupt("negative capacity", func(w *serve.WireGraph) {
		bad := append([]byte(nil), raw...)
		// First edge's cap is a little-endian i64 at offset magic+8.
		off := len("FG1\n") + 8
		for i := 0; i < 8; i++ {
			bad[off+i] = 0xff
		}
		w.Data = base64.StdEncoding.EncodeToString(bad)
	})

	// Error text should identify the wire layer, not leak a panic trace.
	w := *good
	w.Nodes = 1
	_, err := w.Decode()
	if err == nil || !strings.Contains(err.Error(), "wire graph") {
		t.Fatalf("corruption error %v should mention the wire graph", err)
	}
}
