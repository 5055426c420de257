package flowcheck

// classes_equivalence_test.go is the corpus-wide soundness guard for the
// multi-commodity class analysis: for every guest, in both graph
// construction modes and at several worker counts, the shared path (one
// execution + per-class capacity views) must bound each class at least as
// high as the ranged oracle — the paper's §10.1 per-class bound taken
// literally: the plain analysis with only that class's bytes marked
// secret (Config.Taint.SecretRanges), one execution per class.
// The shared graph is built from an all-marked run, so it is an edge
// superset of any single-class graph with at-least-merged endpoints;
// max flow is monotone in capacities, hence shared >= ranged per class is
// the invariant (exactness is not promised when rangings interact with
// the collapsed graph's label merging, but in practice the corpus agrees
// bit-for-bit — asserted when it holds structurally: a single class
// covering the whole secret must equal the plain analysis exactly).
//
// Run with -race: the shared path fans class solves out across workers
// over one immutable classGraph.

import (
	"fmt"
	"math"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/taint"
)

// rangedClass is the oracle: the plain analysis of in with only class c's
// bytes marked secret.
func rangedClass(prog *Program, in Inputs, c SecretClass, cfg Config) (*Result, error) {
	cfg.Taint.SecretRanges = []taint.StreamRange{{Off: c.Off, Len: c.Len}}
	return Analyze(prog, in, cfg)
}

// corpusClasses splits a secret of n bytes into three contiguous classes
// (uneven on purpose: a short prefix, a middle, and the tail) when it is
// long enough, then adds the edge cases every secret gets: an empty class,
// one wholly past the end, one straddling the end, and one whose Len is
// math.MaxInt (Off+Len overflows).
func corpusClasses(n int) []SecretClass {
	var out []SecretClass
	if n >= 4 {
		a := n / 4
		b := n / 2
		out = append(out,
			SecretClass{Name: "prefix", Off: 0, Len: a},
			SecretClass{Name: "middle", Off: a, Len: b - a},
			SecretClass{Name: "tail", Off: b, Len: n - b})
	}
	return append(out,
		SecretClass{Name: "empty", Off: n / 2, Len: 0},
		SecretClass{Name: "past-end", Off: n + 4, Len: 4},
		SecretClass{Name: "straddle-end", Off: n - 1, Len: 8},
		SecretClass{Name: "maxint", Off: 1, Len: math.MaxInt})
}

// TestClassSoundnessCorpus checks shared-vs-ranged on every guest, both
// graph modes, serial and parallel class solving.
func TestClassSoundnessCorpus(t *testing.T) {
	for _, name := range guest.Names() {
		name := name
		for _, exact := range []bool{false, true} {
			exact := exact
			t.Run(fmt.Sprintf("%s/exact=%v", name, exact), func(t *testing.T) {
				if testing.Short() && exact && name == "compress" {
					t.Skip("exact-mode compress is slow")
				}
				t.Parallel()
				secret, public, ok := guest.SampleInputs(name)
				if !ok {
					t.Fatalf("no sample inputs for %q", name)
				}
				prog := guest.Program(name)
				in := Inputs{Secret: secret, Public: public}
				classes := corpusClasses(len(secret))
				base := Config{Taint: taint.Options{Exact: exact}}

				oracle := make([]*Result, len(classes))
				for i, c := range classes {
					r, err := rangedClass(prog, in, c, base)
					if err != nil {
						t.Fatalf("ranged oracle, class %q: %v", c.Name, err)
					}
					oracle[i] = r
				}

				joint, err := Analyze(prog, in, base)
				if err != nil {
					t.Fatalf("joint analyze: %v", err)
				}

				for _, workers := range []int{1, 3} {
					cfg := base
					cfg.Workers = workers
					shared, err := AnalyzeClassSet(prog, in, classes, cfg)
					if err != nil {
						t.Fatalf("shared (workers=%d): %v", workers, err)
					}
					if shared.Executions != 1 {
						t.Errorf("workers=%d: shared path performed %d executions, want exactly 1", workers, shared.Executions)
					}
					for i, cr := range shared.Classes {
						if cr.Err != nil {
							t.Fatalf("class %q failed: %v", cr.Class.Name, cr.Err)
						}
						// The soundness invariant: a shared-view class bound
						// never undercuts the per-class oracle.
						if or := oracle[i].Bits; cr.Bits < or {
							t.Errorf("workers=%d class %q: shared bound %d < ranged oracle %d (unsound)",
								workers, cr.Class.Name, cr.Bits, or)
						}
						// No class can reveal more than the joint execution.
						if cr.Bits > joint.Bits {
							t.Errorf("workers=%d class %q: class bound %d > joint bound %d",
								workers, cr.Class.Name, cr.Bits, joint.Bits)
						}
					}
					if shared.Joint == nil || shared.Joint.Bits != joint.Bits {
						t.Errorf("workers=%d: shared joint = %v, want %d bits", workers, shared.Joint, joint.Bits)
					}
				}
			})
		}
	}
}

// TestClassHugeLenMatchesInRange pins the overflow case: a class whose
// Off+Len exceeds math.MaxInt covers every byte from Off onward, so both
// the shared path and the ranged oracle must report what the in-range
// spelling of the same bytes reports.
func TestClassHugeLenMatchesInRange(t *testing.T) {
	for _, name := range []string{"count_punct", "calendar", "sshauth"} {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			t.Fatalf("no sample inputs for %q", name)
		}
		prog := guest.Program(name)
		in := Inputs{Secret: secret, Public: public}
		huge := SecretClass{Name: "huge", Off: 1, Len: math.MaxInt}
		exact := SecretClass{Name: "exact", Off: 1, Len: len(secret) - 1}
		ca, err := AnalyzeClassSet(prog, in, []SecretClass{huge, exact}, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h, e := ca.Classes[0].Bits, ca.Classes[1].Bits; e == 0 || h != e {
			t.Errorf("%s shared: [1, MaxInt) = %d bits, [1, %d) = %d bits; want equal and nonzero", name, h, len(secret), e)
		}
		rh, err := rangedClass(prog, in, huge, Config{})
		if err != nil {
			t.Fatal(err)
		}
		re, err := rangedClass(prog, in, exact, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if re.Bits == 0 || rh.Bits != re.Bits {
			t.Errorf("%s ranged: [1, MaxInt) = %d bits, [1, %d) = %d bits; want equal and nonzero", name, rh.Bits, len(secret), re.Bits)
		}
	}
}

// TestClassFullRangeMatchesPlainAnalysis pins the bit-for-bit case: one
// class covering the entire secret is the same flow problem as the plain
// analysis (every attributed source byte keeps its full capacity), so the
// bound and the cut value must agree exactly on every guest.
func TestClassFullRangeMatchesPlainAnalysis(t *testing.T) {
	for _, name := range guest.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			secret, public, ok := guest.SampleInputs(name)
			if !ok {
				t.Fatalf("no sample inputs for %q", name)
			}
			prog := guest.Program(name)
			in := Inputs{Secret: secret, Public: public}
			all := []SecretClass{{Name: "all", Off: 0, Len: len(secret)}}

			plain, err := Analyze(prog, in, Config{})
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			ca, err := AnalyzeClassSet(prog, in, all, Config{})
			if err != nil {
				t.Fatalf("class set: %v", err)
			}
			if cr := ca.Classes[0]; cr.Bits != plain.Bits {
				t.Errorf("full-range class = %d bits, plain analysis = %d bits", cr.Bits, plain.Bits)
			}
		})
	}
}

// TestClassSharedSingleExecution is the acceptance observable for the
// multi-commodity refactor: N classes cost exactly one guest execution
// (one pooled session created, per-class Execute/Build stages zero) and N
// solves; a second call with a different class set reuses the cached
// class graph and executes nothing.
func TestClassSharedSingleExecution(t *testing.T) {
	secret, public, ok := guest.SampleInputs("sshauth")
	if !ok {
		t.Fatal("no sample inputs for sshauth")
	}
	in := engine.Inputs{Secret: secret, Public: public}
	classes := []engine.SecretClass{
		{Name: "q0", Off: 0, Len: 16},
		{Name: "q1", Off: 16, Len: 16},
		{Name: "q2", Off: 32, Len: 16},
		{Name: "q3", Off: 48, Len: 16},
	}
	cache := stagecache.New(stagecache.Options{})
	a := engine.New(guest.Program("sshauth"), engine.Config{Workers: 4, Cache: cache})

	ca, err := a.AnalyzeClassSet(in, classes)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Executions != 1 {
		t.Errorf("Executions = %d, want 1", ca.Executions)
	}
	if got := a.Pool().Created; got != 1 {
		t.Errorf("pool sessions created = %d, want 1 (one shared execution)", got)
	}
	if ca.Joint == nil || ca.Joint.Stages.Execute == 0 {
		t.Error("joint result should carry the shared execution's stage time")
	}
	for _, cr := range ca.Classes {
		if cr.Err != nil {
			t.Fatalf("class %q: %v", cr.Class.Name, cr.Err)
		}
		if cr.Stages.Execute != 0 || cr.Stages.Build != 0 {
			t.Errorf("class %q executed/built on its own (execute=%v build=%v); the shared path must only solve",
				cr.Class.Name, cr.Stages.Execute, cr.Stages.Build)
		}
		if cr.Stages.Solve == 0 {
			t.Errorf("class %q records no solve time", cr.Class.Name)
		}
	}

	// A different class set over the same inputs re-slices the cached
	// class graph: zero further executions, zero further sessions.
	ca2, err := a.AnalyzeClassSet(in, []engine.SecretClass{{Name: "half", Off: 0, Len: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if ca2.Executions != 0 {
		t.Errorf("second class set: Executions = %d, want 0 (class graph cached)", ca2.Executions)
	}
	if got := a.Pool().Created; got != 1 {
		t.Errorf("second class set created a session (total %d), want the cached graph to serve it", got)
	}
}
