package engine

import (
	"testing"

	"flowcheck/internal/lang"
	"flowcheck/internal/stagecache"
)

// ladderSrc reads 2 of its secret bytes and emits one: the static rung
// bounds it at 16 bits regardless of how large the secret is.
const ladderSrc = `
int main() {
    char buf[2];
    read_secret(buf, 2);
    putc(buf[0] ^ buf[1]);
    return 0;
}
`

func compileLadder(t *testing.T) *Analyzer {
	t.Helper()
	prog, err := lang.Compile("ladder.mc", ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	return New(prog, Config{})
}

func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{
		"":         PrecisionFull,
		"full":     PrecisionFull,
		"trivial":  PrecisionTrivial,
		"static":   PrecisionStatic,
		"adaptive": PrecisionAdaptive,
	} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() == "" {
			t.Errorf("Precision(%v).String() empty", got)
		}
	}
	if _, err := ParsePrecision("bogus"); err == nil {
		t.Error("ParsePrecision accepted a bogus name")
	}
}

// The trivial rung answers 8·len with no execution and no session.
func TestTrivialRungNoExecution(t *testing.T) {
	prog, err := lang.Compile("ladder.mc", ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := New(prog, Config{Precision: PrecisionTrivial})
	res, err := a.Analyze(Inputs{Secret: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits != 48 || res.Rung != RungTrivial || !res.Degraded {
		t.Fatalf("trivial rung: bits=%d rung=%q degraded=%v, want 48/trivial/true",
			res.Bits, res.Rung, res.Degraded)
	}
	if res.Graph != nil || res.Flow != nil || res.Cut != nil {
		t.Error("trivial rung produced a graph/flow/cut")
	}
	if got := a.Pool(); got.Created != 0 {
		t.Errorf("trivial rung drew %d sessions, want 0", got.Created)
	}
}

// The static rung answers the capacity bound (16 bits here) with no
// execution; when the static analysis is already cached process-wide a
// warm request creates zero sessions — the PR 6 full-hit property.
func TestStaticRungWarmNoSession(t *testing.T) {
	prog, err := lang.Compile("ladder_warm.mc", ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the global static cache with a different analyzer.
	New(prog, Config{}).Static()

	a := New(prog, Config{Precision: PrecisionStatic})
	res, err := a.Analyze(Inputs{Secret: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits != 16 || res.Rung != RungStatic {
		t.Fatalf("static rung: bits=%d rung=%q, want 16/static", res.Bits, res.Rung)
	}
	if !res.Cache.StaticHit {
		t.Error("warm static rung did not report a static-cache hit")
	}
	if res.Graph != nil {
		t.Error("static rung produced a graph")
	}
	if got := a.Pool(); got.Created != 0 {
		t.Errorf("warm static rung drew %d sessions, want 0 executions", got.Created)
	}
	if res.Steps != 0 || len(res.Output) != 0 {
		t.Errorf("static rung executed: steps=%d output=%q", res.Steps, res.Output)
	}
}

// Adaptive: a 1-byte secret's trivial bound (8) clears a threshold of 8;
// a 64-byte secret needs the static rung (16 ≤ 20); threshold 10 forces
// the full solve.
func TestAdaptiveEscalation(t *testing.T) {
	prog, err := lang.Compile("ladder_adaptive.mc", ladderSrc)
	if err != nil {
		t.Fatal(err)
	}

	res, err := New(prog, Config{Precision: PrecisionAdaptive, AdaptiveThreshold: 8}).Analyze(Inputs{Secret: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != RungTrivial || res.Bits != 8 {
		t.Fatalf("small secret: rung=%q bits=%d, want trivial/8", res.Rung, res.Bits)
	}

	res, err = New(prog, Config{Precision: PrecisionAdaptive, AdaptiveThreshold: 20}).Analyze(Inputs{Secret: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != RungStatic || res.Bits != 16 {
		t.Fatalf("big secret: rung=%q bits=%d, want static/16", res.Rung, res.Bits)
	}

	a := New(prog, Config{Precision: PrecisionAdaptive, AdaptiveThreshold: 10})
	res, err = a.Analyze(Inputs{Secret: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != RungFull || res.Degraded {
		t.Fatalf("tight threshold: rung=%q degraded=%v, want an escalated full solve", res.Rung, res.Degraded)
	}
	if res.Bits > 16 {
		t.Errorf("full solve (%d bits) looser than the static bound (16)", res.Bits)
	}
	if got := a.Pool(); got.Created == 0 {
		t.Error("escalated solve never drew a session")
	}
}

// Rung provenance: a solver-budget degradation is RungTrivial with a
// graph; rung short-circuits have no graph; full solves are RungFull.
// Multi-run summaries carry the rung per run.
func TestRungProvenance(t *testing.T) {
	prog, err := lang.Compile("ladder_prov.mc", ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Secret: []byte("ab")}

	full, err := New(prog, Config{}).Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rung != RungFull {
		t.Errorf("full solve rung = %q", full.Rung)
	}

	degraded, err := New(prog, Config{Budget: Budget{SolverWork: 1}}).Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded || degraded.Rung != RungTrivial || degraded.Graph == nil {
		t.Errorf("budget degradation: rung=%q degraded=%v graph=%v, want trivial/true/non-nil",
			degraded.Rung, degraded.Degraded, degraded.Graph != nil)
	}

	multi, err := New(prog, Config{Precision: PrecisionStatic}).AnalyzeMulti([]Inputs{in, in})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Rung != RungStatic || multi.Bits != 32 {
		t.Fatalf("multi static: rung=%q bits=%d, want static/32 (16 per run)", multi.Rung, multi.Bits)
	}
	for _, r := range multi.Runs {
		if r.Rung != RungStatic || r.Bits != 16 {
			t.Errorf("run %d: rung=%q bits=%d, want static/16", r.Run, r.Rung, r.Bits)
		}
	}

	batch, err := New(prog, Config{Precision: PrecisionTrivial}).AnalyzeBatch([]Inputs{in, in})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Rung != RungTrivial || batch.Bits != 32 {
		t.Fatalf("batch trivial: rung=%q bits=%d, want trivial/32", batch.Rung, batch.Bits)
	}

	fullBatch, err := New(prog, Config{}).AnalyzeBatch([]Inputs{in, in})
	if err != nil {
		t.Fatal(err)
	}
	if fullBatch.Rung != RungFull {
		t.Errorf("full batch rung = %q", fullBatch.Rung)
	}
	for _, r := range fullBatch.Runs {
		if r.Rung != RungFull {
			t.Errorf("full batch run %d rung = %q", r.Run, r.Rung)
		}
	}
}

// Precision keys the result cache: a full solve and a rung answer for the
// same inputs must not collide.
func TestPrecisionKeysCache(t *testing.T) {
	prog, err := lang.Compile("ladder_key.mc", ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	cache := stagecache.New(stagecache.Options{MaxBytes: 8 << 20})
	in := Inputs{Secret: []byte("ab")}

	full, err := New(prog, Config{Cache: cache}).Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	static, err := New(prog, Config{Cache: cache, Precision: PrecisionStatic}).Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if static.Rung != RungStatic || full.Rung != RungFull {
		t.Fatalf("rungs: full=%q static=%q", full.Rung, static.Rung)
	}
	again, err := New(prog, Config{Cache: cache}).Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rung != RungFull || again.Bits != full.Bits {
		t.Errorf("cached full solve polluted by rung answer: rung=%q bits=%d", again.Rung, again.Bits)
	}
}

// The ladder invariant on the test program: measured ≤ static ≤ trivial.
func TestLadderMonotoneBounds(t *testing.T) {
	a := compileLadder(t)
	in := Inputs{Secret: []byte("abcd")}
	full, err := a.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	static := a.StaticBoundBits(len(in.Secret))
	trivial := TrivialBoundBits(len(in.Secret))
	if full.Bits > static || static > trivial {
		t.Fatalf("ladder violated: measured %d, static %d, trivial %d", full.Bits, static, trivial)
	}
}
