package flowcheck

// bench_test.go times the regeneration of each table and figure
// (DESIGN.md's experiment index) and the ablations DESIGN.md calls out.
// Run with: go test -bench=. -benchmem
//
// Absolute numbers are machine- and substrate-specific; the interesting
// reads are the relative costs (collapsed vs exact construction, Dinic vs
// Edmonds-Karp, lazy regions on vs off, checking vs full analysis).

import (
	"testing"

	"flowcheck/internal/check"
	"flowcheck/internal/engine"
	"flowcheck/internal/experiments"
	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/spqr"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// --------------------------------------------------- per-figure benchmarks ---

func BenchmarkFig2CountPunct(b *testing.B) {
	in := Inputs{Secret: []byte(experiments.Fig2Input)}
	prog := guest.Program("count_punct")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Analyze(prog, in, Config{})
		if err != nil || res.Bits != 9 {
			b.Fatalf("bits=%d err=%v", res.Bits, err)
		}
	}
}

func benchCompress(b *testing.B, n int, opts taint.Options) {
	in := Inputs{Secret: workload.PiWords(n)}
	prog := guest.Program("compress")
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, in, Config{Taint: opts}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Compression1K(b *testing.B)  { benchCompress(b, 1024, taint.Options{}) }
func BenchmarkFig3Compression4K(b *testing.B)  { benchCompress(b, 4096, taint.Options{}) }
func BenchmarkFig3Compression16K(b *testing.B) { benchCompress(b, 16384, taint.Options{}) }

func BenchmarkFig4Battleship(b *testing.B) {
	secret := workload.BattleshipSecret(7)
	public := workload.BattleshipShots(0, [][2]byte{{0, 0}, {5, 5}, {9, 9}})
	prog := guest.Program("battleship")
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, Inputs{Secret: secret, Public: public}, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4SSH(b *testing.B) {
	in := experiments.SSHInputs()
	prog := guest.Program("sshauth")
	for i := 0; i < b.N; i++ {
		res, err := Analyze(prog, in, Config{})
		if err != nil || res.Bits != 128 {
			b.Fatalf("bits=%d err=%v", res.Bits, err)
		}
	}
}

func BenchmarkFig5Transforms(b *testing.B) {
	img := workload.Image(25, 25, 1)
	prog := guest.Program("imagefilter")
	for _, mode := range []struct {
		name string
		m    byte
	}{{"Pixelate", 0}, {"Blur", 1}, {"Swirl", 2}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(prog, Inputs{Secret: img, Public: []byte{mode.m}}, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTab4Calendar(b *testing.B) {
	prog := guest.Program("calendar")
	in := Inputs{Secret: []byte{1, 20, 24}, Public: []byte{1, 9, 18}}
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, in, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTab4XServer(b *testing.B) {
	prog := guest.Program("xserver")
	text := []byte("Hello, world!")
	secret := append(append(make([]byte, 32), byte(len(text))), text...)
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, Inputs{Secret: secret, Public: []byte{0}}, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTab6Inference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Tab6()
	}
}

func BenchmarkSPReduction(b *testing.B) {
	res, err := Analyze(guest.Program("compress"),
		Inputs{Secret: workload.PiWords(1024)},
		Config{Taint: taint.Options{Exact: true}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spqr.Reduce(res.Graph)
	}
}

func BenchmarkKraftMergedRuns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Kraft()
	}
}

// -------------------------------------------------------------- ablations ---

// Collapsed vs exact graph construction (§5.2).
func BenchmarkAblationCollapsed(b *testing.B) { benchCompress(b, 2048, taint.Options{}) }
func BenchmarkAblationExact(b *testing.B)     { benchCompress(b, 2048, taint.Options{Exact: true}) }
func BenchmarkAblationContextSensitive(b *testing.B) {
	benchCompress(b, 2048, taint.Options{ContextSensitive: true})
}

// Exact-mode construction with online arena compaction off vs on: the
// epoch passes trade CPU for a bounded live graph (Result.Mem reports the
// peak). The flow bound is identical either way.
func BenchmarkCompaction(b *testing.B) {
	in := Inputs{Secret: workload.PiWords(2048)}
	prog := guest.Program("compress")
	for _, c := range []struct {
		name    string
		compact int
	}{{"Off", 0}, {"Epoch4096", 4096}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(2048)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Analyze(prog, in, Config{
					Taint: taint.Options{Exact: true}, Compact: c.compact,
				})
				if err != nil {
					b.Fatal(err)
				}
				if c.compact > 0 && res.Mem.CompactionPasses == 0 {
					b.Fatal("no compaction passes ran")
				}
			}
		})
	}
}

// Lazy large-region descriptors on vs off (§4.3): a loop whose enclosure
// retags a large array every iteration is O(iterations) with lazy
// descriptors and O(iterations x array) without — the quadratic blowup the
// paper's laziness avoids.
const lazyRegionSrc = `
char big[8192];
int main() {
    char buf[1];
    int i;
    read_secret(buf, 1);
    for (i = 0; i < 200; i++) {
        __enclose(big : 8192) {
            if (buf[0] > (char)i) big[i] = 1;
        }
    }
    putc(big[0]);
    return 0;
}`

func benchLazy(b *testing.B, opts taint.Options) {
	prog, err := lang.Compile("lazy.mc", lazyRegionSrc)
	if err != nil {
		b.Fatal(err)
	}
	in := Inputs{Secret: []byte{100}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, in, Config{Taint: opts}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLazyRegionsOn(b *testing.B)  { benchLazy(b, taint.Options{}) }
func BenchmarkAblationLazyRegionsOff(b *testing.B) { benchLazy(b, taint.Options{MaxDescriptors: -1}) }

// Max-flow algorithms on a real analysis graph (§5). The exact graph of a
// 512-byte run has ~100k edges — large enough to show Edmonds-Karp's
// superlinear behavior without stalling the suite.
func BenchmarkMaxflowAlgorithms(b *testing.B) {
	res, err := Analyze(guest.Program("compress"),
		Inputs{Secret: workload.PiWords(512)},
		Config{Taint: taint.Options{Exact: true}})
	if err != nil {
		b.Fatal(err)
	}
	g := res.Graph
	b.Run("Dinic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			maxflow.Compute(g, maxflow.Dinic)
		}
	})
	b.Run("EdmondsKarp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			maxflow.Compute(g, maxflow.EdmondsKarp)
		}
	})
	b.Run("PushRelabel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			maxflow.Compute(g, maxflow.PushRelabel)
		}
	})
	b.Run("SPReduceThenDinic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			red, _ := spqr.Reduce(g)
			maxflow.Compute(red, maxflow.Dinic)
		}
	})
}

// The engine's parallel batch path vs serial analysis over the same N
// executions of a case-study guest (the ISSUE 1 acceptance benchmark).
// Serial runs N independent Analyze calls (fresh machine each); Multi is
// the online §3.2 accumulation; Batch1/BatchMax are the engine fan-out
// with pooled sessions at one worker and at GOMAXPROCS. On multi-core,
// BatchMax should beat Serial while reporting the same joint Bits as Multi.
func BenchmarkEngineBatch(b *testing.B) {
	const runs = 8
	prog := guest.Program("compress")
	inputs := make([]Inputs, runs)
	for i := range inputs {
		inputs[i] = Inputs{Secret: workload.PiWords(768 + 64*i)}
	}
	want, err := NewAnalyzer(prog, Config{}).AnalyzeMulti(inputs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range inputs {
				if _, err := Analyze(prog, in, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Multi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewAnalyzer(prog, Config{}).AnalyzeMulti(inputs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Batch1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := AnalyzeBatch(prog, inputs, Config{Workers: 1})
			if err != nil || res.Bits != want.Bits {
				b.Fatalf("bits=%d want=%d err=%v", res.Bits, want.Bits, err)
			}
		}
	})
	b.Run("BatchMax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := AnalyzeBatch(prog, inputs, Config{})
			if err != nil || res.Bits != want.Bits {
				b.Fatalf("bits=%d want=%d err=%v", res.Bits, want.Bits, err)
			}
		}
	})
}

// Checking modes vs full analysis vs plain execution (§6).
func BenchmarkCheckingModes(b *testing.B) {
	secret := []byte(experiments.Fig2Input)
	prog := guest.Program("count_punct")
	res, err := Analyze(prog, Inputs{Secret: secret}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	cut := res.CutSites()
	dummy := make([]byte, len(secret))
	for i := range dummy {
		dummy[i] = 'x'
	}
	b.Run("PlainRun", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunPlain(prog, Inputs{Secret: secret}, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullAnalysis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Analyze(prog, Inputs{Secret: secret}, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TaintCheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := check.RunTaintCheck(prog, secret, nil, cut, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Lockstep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := check.RunLockstep(prog, secret, dummy, nil, cut, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
