package engine_test

import (
	"runtime"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// unaryInputs exercises the §3.2 unsoundness example: the unary guest
// prints its secret byte in unary, so per-run bounds are min(8, n+1) and
// only the merged graph's bound is jointly sound.
func unaryInputs(secrets ...byte) []engine.Inputs {
	in := make([]engine.Inputs, len(secrets))
	for i, n := range secrets {
		in[i] = engine.Inputs{Secret: []byte{n}}
	}
	return in
}

// TestBatchDeterministicAcrossWorkerCounts is the batch path's core
// guarantee: Bits and the cut are identical regardless of worker count.
// Run under -race this also exercises the fan-out for data races.
func TestBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	prog := guest.Program("unary")
	inputs := unaryInputs(0, 1, 2, 3, 5, 8, 13, 40, 100, 150, 200, 255)

	multi, err := engine.New(prog, engine.Config{}).AnalyzeMulti(inputs)
	if err != nil {
		t.Fatal(err)
	}

	var first *engine.Result
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), 7} {
		res, err := engine.New(prog, engine.Config{Workers: w}).AnalyzeBatch(inputs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Bits != multi.Bits {
			t.Fatalf("workers=%d: batch bits %d != multi bits %d", w, res.Bits, multi.Bits)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Bits != first.Bits {
			t.Fatalf("workers=%d: bits %d != %d", w, res.Bits, first.Bits)
		}
		if res.Cut.Capacity != first.Cut.Capacity {
			t.Fatalf("workers=%d: cut capacity %d != %d", w, res.Cut.Capacity, first.Cut.Capacity)
		}
		if got, want := res.CutString(), first.CutString(); got != want {
			t.Fatalf("workers=%d: cut %q != %q", w, got, want)
		}
		if len(res.Runs) != len(first.Runs) {
			t.Fatalf("workers=%d: %d run summaries != %d", w, len(res.Runs), len(first.Runs))
		}
		for i := range res.Runs {
			if res.Runs[i] != first.Runs[i] {
				t.Fatalf("workers=%d run %d: summary %+v != %+v", w, i, res.Runs[i], first.Runs[i])
			}
		}
	}
}

// Exact mode numbers edges per builder; the batch path must salt labels so
// per-run graphs merge side by side, matching online exact-mode analysis.
func TestBatchMatchesMultiExactMode(t *testing.T) {
	prog := guest.Program("unary")
	inputs := unaryInputs(0, 3, 200)
	cfg := engine.Config{Taint: taint.Options{Exact: true}}

	multi, err := engine.New(prog, cfg).AnalyzeMulti(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		wcfg := cfg
		wcfg.Workers = w
		batch, err := engine.New(prog, wcfg).AnalyzeBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Bits != multi.Bits {
			t.Fatalf("workers=%d: exact batch bits %d != multi bits %d", w, batch.Bits, multi.Bits)
		}
	}
}

// A realistic case-study guest: batch and multi agree on the joint bound.
func TestBatchMatchesMultiCompress(t *testing.T) {
	prog := guest.Program("compress")
	var inputs []engine.Inputs
	for i := 0; i < 4; i++ {
		inputs = append(inputs, engine.Inputs{Secret: workload.PiWords(128 + 64*i)})
	}
	multi, err := engine.New(prog, engine.Config{}).AnalyzeMulti(inputs)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := engine.New(prog, engine.Config{}).AnalyzeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Bits != multi.Bits {
		t.Fatalf("batch bits %d != multi bits %d", batch.Bits, multi.Bits)
	}
}

// Session reuse must not leak state between runs: repeated analyses on one
// Analyzer agree with a fresh analysis each time.
func TestSessionReuseIsClean(t *testing.T) {
	prog := guest.Program("compress")
	in := engine.Inputs{Secret: workload.PiWords(256)}
	fresh, err := engine.New(prog, engine.Config{}).Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	a := engine.New(prog, engine.Config{})
	for i := 0; i < 3; i++ {
		res, err := a.Analyze(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bits != fresh.Bits {
			t.Fatalf("reused session run %d: bits %d != fresh %d", i, res.Bits, fresh.Bits)
		}
		if got, want := res.CutString(), fresh.CutString(); got != want {
			t.Fatalf("reused session run %d: cut %q != %q", i, got, want)
		}
		if string(res.Output) != string(fresh.Output) {
			t.Fatalf("reused session run %d: output differs", i)
		}
	}
	// Different input on the same session: no residue from the previous one.
	in2 := engine.Inputs{Secret: workload.PiWords(64)}
	fresh2, err := engine.New(prog, engine.Config{}).Analyze(in2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := a.Analyze(in2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Bits != fresh2.Bits || string(res2.Output) != string(fresh2.Output) {
		t.Fatalf("reused session on new input: bits %d/%d, outputs %d/%d bytes",
			res2.Bits, fresh2.Bits, len(res2.Output), len(fresh2.Output))
	}
}

// AnalyzeMulti's per-run summaries expose what each run contributed: the
// cumulative bound is non-decreasing and ends at the joint result.
func TestMultiRunSummaries(t *testing.T) {
	prog := guest.Program("unary")
	inputs := unaryInputs(0, 3, 200)
	res, err := engine.New(prog, engine.Config{}).AnalyzeMulti(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(inputs) {
		t.Fatalf("got %d run summaries, want %d", len(res.Runs), len(inputs))
	}
	prev := int64(-1)
	for i, r := range res.Runs {
		if r.Run != i {
			t.Fatalf("summary %d has Run=%d", i, r.Run)
		}
		if r.Bits < prev {
			t.Fatalf("cumulative bound decreased: run %d has %d after %d", i, r.Bits, prev)
		}
		prev = r.Bits
		if want := int(inputs[i].Secret[0]); r.OutputBytes != want {
			t.Fatalf("run %d: %d output bytes, want %d", i, r.OutputBytes, want)
		}
		if r.Steps == 0 {
			t.Fatalf("run %d: zero steps", i)
		}
	}
	if res.Runs[len(res.Runs)-1].Bits != res.Bits {
		t.Fatalf("last summary bits %d != joint bits %d", res.Runs[len(res.Runs)-1].Bits, res.Bits)
	}
}

// AnalyzeBatch summaries carry each run's standalone bound — min(8, n+1)
// for the unary guest — while the joint bound is at least their maximum.
func TestBatchRunSummaries(t *testing.T) {
	prog := guest.Program("unary")
	secrets := []byte{0, 1, 5, 150}
	res, err := engine.New(prog, engine.Config{}).AnalyzeBatch(unaryInputs(secrets...))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Runs {
		want := int64(secrets[i]) + 1
		if want > 8 {
			want = 8
		}
		if r.Bits != want {
			t.Fatalf("run %d standalone bits %d, want %d", i, r.Bits, want)
		}
		if res.Bits < r.Bits {
			t.Fatalf("joint bits %d below run %d's %d", res.Bits, i, r.Bits)
		}
	}
}

// Satellite: CutSites (and the other cut views) must tolerate a result
// with no computed cut instead of panicking.
func TestCutViewsNilCut(t *testing.T) {
	var r engine.Result
	if s := r.CutSites(); s != nil {
		t.Fatalf("CutSites on nil cut = %v, want nil", s)
	}
	if d := r.DescribeCut(); d != nil {
		t.Fatalf("DescribeCut on nil cut = %v, want nil", d)
	}
	if got, want := r.CutString(), "0 bits = "; got != want {
		t.Fatalf("CutString on nil cut = %q, want %q", got, want)
	}
}

// Parallel per-class analysis agrees with running each class serially.
func TestAnalyzeClassesMatchesSerial(t *testing.T) {
	prog := guest.Program("unary")
	// The unary guest reads 1 secret byte; give it 2 and split into classes
	// so only the first is ever read.
	in := engine.Inputs{Secret: []byte{5, 200}}
	classes := []engine.SecretClass{
		{Name: "first", Off: 0, Len: 1},
		{Name: "second", Off: 1, Len: 1},
	}
	ca, err := engine.New(prog, engine.Config{}).AnalyzeClassSet(in, classes)
	if err != nil {
		t.Fatal(err)
	}
	par := ca.Classes
	for i, c := range classes {
		cfg := engine.Config{}
		cfg.Taint.SecretRanges = []taint.StreamRange{{Off: c.Off, Len: c.Len}}
		serial, err := engine.New(prog, cfg).Analyze(in)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].Bits != serial.Bits {
			t.Fatalf("class %s: parallel %d bits != serial %d", c.Name, par[i].Bits, serial.Bits)
		}
		if par[i].Cut != serial.CutString() {
			t.Fatalf("class %s: parallel cut %q != serial %q", c.Name, par[i].Cut, serial.CutString())
		}
	}
	if par[0].Bits == 0 {
		t.Fatal("first class should leak")
	}
	if par[1].Bits != 0 {
		t.Fatalf("unread second class leaks %d bits", par[1].Bits)
	}
}

// The observability seam: stage timings are populated and the batch path
// records the merge stage.
func TestStageStatsPopulated(t *testing.T) {
	prog := guest.Program("compress")
	res, err := engine.New(prog, engine.Config{}).Analyze(engine.Inputs{Secret: workload.PiWords(256)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.Total <= 0 {
		t.Fatalf("single-run Total = %v", res.Stages.Total)
	}
	if res.Stages.Execute <= 0 {
		t.Fatalf("single-run Execute = %v", res.Stages.Execute)
	}
	if res.Stages.Merge != 0 {
		t.Fatalf("single-run Merge = %v, want 0", res.Stages.Merge)
	}

	batch, err := engine.New(prog, engine.Config{}).AnalyzeBatch([]engine.Inputs{
		{Secret: workload.PiWords(128)}, {Secret: workload.PiWords(192)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Stages.Merge <= 0 {
		t.Fatalf("batch Merge = %v, want > 0", batch.Stages.Merge)
	}
	if batch.Stages.Total <= 0 || batch.Stages.Execute <= 0 {
		t.Fatalf("batch stages not populated: %+v", batch.Stages)
	}
}
