package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/stagecache"
)

// ------------------------------------------------ Content-addressed cache ---

// CacheResult measures the staged cache's three serving regimes on one
// program (DESIGN.md "Content-addressed caching"): cold — every input
// analyzed through a fresh cache, the full pipeline runs; incremental —
// fresh inputs against a cache that has seen the program once, so the
// static analysis and the collapsed graph skeleton are reused and only
// Execute + the capacity re-solve run; warm — exact repeats, answered
// entirely from the cached result without touching a session.
type CacheResult struct {
	Inputs int // distinct inputs per phase

	Cold        time.Duration // phase totals over Inputs runs
	Incremental time.Duration
	Warm        time.Duration

	ColdDisp, IncDisp, WarmDisp string // uniform disposition per phase

	BitsAgree bool    // every cached bound matches an uncached rerun
	HitRatio  float64 // result-kind hit ratio over the warm sweep's cache
	Evictions int64   // result-kind evictions (want 0 at this budget)
}

// cacheStudySource generates a straight-line mixing program: every
// statement is its own code location, so the collapsed graph carries one
// node per statement and Build + Solve are a substantial share of the
// pipeline — the share an incremental re-solve saves. Control flow is
// input-independent, so every input yields the same topology and the
// incremental phase exercises the skeleton-refill path rather than
// falling back to a full build.
func cacheStudySource(stmts int) string {
	var b strings.Builder
	b.WriteString("int main() {\n\tchar buf[4];\n\tread_secret(buf, 4);\n\tint acc;\n\tacc = 0;\n")
	for i := 0; i < stmts; i++ {
		fmt.Fprintf(&b, "\tacc = acc ^ (buf[%d] + %d);\n", i%4, i%251)
	}
	b.WriteString("\tputc(acc & 255);\n\treturn 0;\n}\n")
	return b.String()
}

// CacheStudy sweeps n distinct inputs through each regime.
func CacheStudy(n int) CacheResult {
	prog, err := engine.CompileCached("cachestudy.mc", cacheStudySource(1000))
	if err != nil {
		panic(err)
	}
	inputs := make([]engine.Inputs, n)
	for i := range inputs {
		inputs[i] = engine.Inputs{Secret: []byte{byte(i), byte(i >> 8), 0x5A, byte(7 * i)}}
	}
	r := CacheResult{Inputs: n, BitsAgree: true}
	ctx := context.Background()

	sweep := func(cfg engine.Config, ins []engine.Inputs) (time.Duration, string) {
		disp := ""
		t0 := time.Now()
		for _, in := range ins {
			res, err := engine.New(prog, cfg).AnalyzeContext(ctx, in)
			if err != nil {
				panic(err)
			}
			if disp == "" {
				disp = res.Cache.Disposition
			} else if res.Cache.Disposition != disp {
				panic(fmt.Sprintf("mixed dispositions in one phase: %s vs %s", disp, res.Cache.Disposition))
			}
		}
		return time.Since(t0), disp
	}

	// Cold: a fresh cache per input — nothing to reuse, every run is a miss.
	t0 := time.Now()
	for _, in := range inputs {
		cfg := engine.Config{Cache: stagecache.New(stagecache.Options{})}
		if _, err := engine.New(prog, cfg).AnalyzeContext(ctx, in); err != nil {
			panic(err)
		}
	}
	r.Cold, r.ColdDisp = time.Since(t0), engine.CacheMiss

	// Incremental: one seed run caches the skeleton and static analysis;
	// the n fresh inputs then re-run only Execute + the capacity re-solve.
	// Each cached result retains its ~25k-edge graph, so the budget is
	// sized to hold the whole sweep — eviction is measured elsewhere
	// (stagecache tests), not here.
	cache := stagecache.New(stagecache.Options{MaxBytes: 512 << 20})
	cfg := engine.Config{Cache: cache}
	if _, err := engine.New(prog, cfg).AnalyzeContext(ctx, engine.Inputs{Secret: []byte{0xFF, 0xEE, 0xDD, 0xCC}}); err != nil {
		panic(err)
	}
	r.Incremental, r.IncDisp = sweep(cfg, inputs)

	// Warm: the same inputs again — full result hits, no pipeline work.
	r.Warm, r.WarmDisp = sweep(cfg, inputs)

	// Cached bounds must match uncached reruns bit for bit.
	for _, in := range inputs {
		cached, err := engine.New(prog, cfg).AnalyzeContext(ctx, in)
		if err != nil {
			panic(err)
		}
		plain, err := engine.New(prog, engine.Config{}).Analyze(in)
		if err != nil {
			panic(err)
		}
		if cached.Bits != plain.Bits || cached.TaintedOutputBits != plain.TaintedOutputBits ||
			string(cached.Output) != string(plain.Output) {
			r.BitsAgree = false
		}
	}

	st := cache.Stats()
	ks := st.Kinds[engine.KindResult]
	r.HitRatio = ks.HitRatio()
	r.Evictions = ks.Evictions
	return r
}
