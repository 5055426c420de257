package maxflow_test

import (
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/workload"
)

// The reference solvers agree with Dinic on graphs the engine actually
// builds: same flow value, and a cut whose edges sum to that value.
func TestAlgorithmsAgreeOnRealGraph(t *testing.T) {
	cases := []struct {
		guest string
		in    engine.Inputs
	}{
		{"compress", engine.Inputs{Secret: workload.PiWords(512)}},
		{"count_punct", engine.Inputs{Secret: []byte("a. b? c.")}},
	}
	for _, tc := range cases {
		res, err := engine.New(guest.Program(tc.guest), engine.Config{}).Analyze(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.guest, err)
		}
		g := res.Graph
		if res.Bits == 0 {
			t.Fatalf("%s: zero-flow graph would make the comparison vacuous", tc.guest)
		}
		for _, algo := range []maxflow.Algorithm{maxflow.Dinic, maxflow.EdmondsKarp, maxflow.PushRelabel} {
			r := maxflow.Compute(g, algo)
			if r.Flow != res.Bits {
				t.Errorf("%s/%v: flow %d, engine (Dinic) reported %d", tc.guest, algo, r.Flow, res.Bits)
			}
			cut := r.MinCut()
			var sum int64
			for _, e := range cut.Edges(g) {
				sum += e.Cap
			}
			if cut.Capacity != r.Flow || sum != r.Flow {
				t.Errorf("%s/%v: cut capacity %d (edges sum %d), flow %d", tc.guest, algo, cut.Capacity, sum, r.Flow)
			}
		}
	}
}
