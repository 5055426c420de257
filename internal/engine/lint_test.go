package engine_test

import (
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
)

// Config.Lint runs the static pre-pass and the static/dynamic
// cross-check. On a well-annotated guest it must come back clean, publish
// the region statistics, and charge the (cached) static analysis to the
// stage stats exactly once per Analyzer.
func TestLintCleanAndCachedAcrossRuns(t *testing.T) {
	secret, public, ok := guest.SampleInputs("count_punct")
	if !ok {
		t.Fatal("no sample inputs for count_punct")
	}
	a := engine.New(guest.Program("count_punct"), engine.Config{Lint: true})
	in := engine.Inputs{Secret: secret, Public: public}

	first, err := a.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Lint) != 0 {
		t.Fatalf("cross-check findings on count_punct: %v", first.Lint)
	}
	if first.StaticStats == nil {
		t.Fatal("Lint run did not publish static stats")
	}
	if first.StaticStats.Regions == 0 || first.StaticStats.Enclosures == 0 {
		t.Fatalf("static stats = %+v, want regions and enclosures", first.StaticStats)
	}
	if first.Stages.Static <= 0 {
		t.Fatal("first run should charge static-analysis time")
	}

	// The analysis is computed once per Analyzer; reruns hit the cache and
	// charge nothing, but still cross-check and publish stats.
	second, err := a.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stages.Static != 0 {
		t.Fatalf("second run charged %v static time; analysis should be cached", second.Stages.Static)
	}
	if second.StaticStats == nil || *second.StaticStats != *first.StaticStats {
		t.Fatalf("cached stats %+v != first %+v", second.StaticStats, first.StaticStats)
	}
	if len(second.Lint) != 0 {
		t.Fatalf("second run findings: %v", second.Lint)
	}
	if a.Static() == nil {
		t.Fatal("Static() should expose the cached analysis")
	}
}

// Without Lint the static machinery must stay out of the way entirely.
func TestNoLintNoStatic(t *testing.T) {
	secret, public, _ := guest.SampleInputs("unary")
	res, err := engine.New(guest.Program("unary"), engine.Config{}).Analyze(engine.Inputs{Secret: secret, Public: public})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lint != nil || res.StaticStats != nil || res.Stages.Static != 0 {
		t.Fatalf("non-lint run carries static state: lint=%v stats=%v dur=%v",
			res.Lint, res.StaticStats, res.Stages.Static)
	}
}

// The batch path cross-checks every run against the shared static
// analysis and merges findings (here: none) without duplicating stats.
func TestBatchLint(t *testing.T) {
	prog := guest.Program("unary")
	var inputs []engine.Inputs
	for _, b := range []byte{0, 3, 7, 200} {
		inputs = append(inputs, engine.Inputs{Secret: []byte{b}})
	}
	res, err := engine.New(prog, engine.Config{Lint: true, Workers: 2}).AnalyzeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lint) != 0 {
		t.Fatalf("batch findings: %v", res.Lint)
	}
	if res.StaticStats == nil || res.StaticStats.Regions == 0 {
		t.Fatalf("batch static stats = %+v", res.StaticStats)
	}
	if res.Stages.Static <= 0 {
		t.Fatal("batch stats should include the one-time static pass")
	}
}

// Every guest with sample inputs must cross-check clean — the
// whole-corpus form of the acceptance criterion, kept cheap enough for
// the ordinary test run by using each guest's canonical inputs only.
func TestLintAllGuestsClean(t *testing.T) {
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			t.Errorf("%s: no sample inputs", name)
			continue
		}
		res, err := engine.New(guest.Program(name), engine.Config{Lint: true}).Analyze(engine.Inputs{Secret: secret, Public: public})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Lint) != 0 {
			t.Errorf("%s: %d cross-check findings:", name, len(res.Lint))
			for _, f := range res.Lint {
				t.Errorf("  %s", f.String())
			}
		}
	}
}
