package taint_test

// Tracker-level behavioral tests, driven through small MiniC programs.
// (External test package: core imports taint, so these use core's
// conveniences without an import cycle.)

import (
	"strings"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/lang"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

func analyze(t *testing.T, src string, secret []byte, opts taint.Options) *engine.Result {
	t.Helper()
	p, err := lang.Compile("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(p, engine.Config{Taint: opts}).Analyze(engine.Inputs{Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatalf("trap: %v", res.Trap)
	}
	return res
}

// Nested regions: the inner region captures its implicit flows; the outer
// region sees only the inner's outputs.
func TestNestedRegions(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    char inner, outer;
    __enclose(outer) {
        __enclose(inner) {
            if (buf[0] > 'm') inner = 1;
            else inner = 2;
        }
        if (inner == 1) outer = 7;
        else outer = 9;
    }
    putc(outer);
    return 0;
}`
	res := analyze(t, src, []byte("x"), taint.Options{})
	// Information funnels: 1 bit into the inner region; everything the
	// outer region learns derives from it.
	if res.Bits != 1 {
		t.Fatalf("bits = %d, want 1; cut %s", res.Bits, res.CutString())
	}
}

// A region whose outputs are never used afterwards contributes nothing.
func TestRegionDeadOutputs(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    char dead;
    __enclose(dead) {
        if (buf[0] > 'm') dead = 1;
    }
    putc('k');
    return 0;
}`
	res := analyze(t, src, []byte("x"), taint.Options{})
	if res.Bits != 0 {
		t.Fatalf("bits = %d, want 0 (region output unused)", res.Bits)
	}
}

// Two sequential outputs after one region: the region's information is
// counted once even though both outputs depend on it.
func TestRegionOutputUsedTwice(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    char r;
    __enclose(r) {
        if (buf[0] > 'm') r = 1;
        else r = 0;
    }
    putc('0' + r);
    putc('0' + r);
    return 0;
}`
	res := analyze(t, src, []byte("x"), taint.Options{})
	if res.Bits != 1 {
		t.Fatalf("bits = %d, want 1", res.Bits)
	}
}

// Stats reflect activity: regions entered, implicit edges, secret bytes.
func TestStatsPopulated(t *testing.T) {
	src := `
int main() {
    char buf[4];
    read_secret(buf, 4);
    char n;
    __enclose(n) {
        for (int i = 0; i < 4; i++)
            if (buf[i] == 'x') n++;
    }
    putc(n);
    return 0;
}`
	res := analyze(t, src, []byte("axbx"), taint.Options{})
	st := res.Stats
	if st.RegionsEntered != 1 {
		t.Errorf("regions = %d", st.RegionsEntered)
	}
	if st.ImplicitEdges == 0 {
		t.Error("no implicit edges recorded")
	}
	if st.SecretInputBytes != 4 {
		t.Errorf("secret bytes = %d", st.SecretInputBytes)
	}
	if st.OutputBytes != 1 {
		t.Errorf("output bytes = %d", st.OutputBytes)
	}
	if st.Elements == 0 || st.LabelledEdges == 0 {
		t.Errorf("graph stats empty: %+v", st)
	}
}

// The warning cap bounds diagnostic memory.
func TestWarningCap(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    for (int i = 0; i < 100; i++) {
        if (buf[0] > 'm') putc('a');
        else putc('b');
    }
    return 0;
}`
	res := analyze(t, src, []byte("z"), taint.Options{WarnImplicit: true, MaxWarnings: 5})
	if len(res.Warnings) != 5 {
		t.Fatalf("warnings = %d, want capped at 5", len(res.Warnings))
	}
}

// SecretRanges: only the configured window of the secret stream is secret,
// even across multiple reads.
func TestSecretRangesAcrossReads(t *testing.T) {
	src := `
int main() {
    char a[2];
    char b[2];
    read_secret(a, 2); // stream offsets 0,1
    read_secret(b, 2); // stream offsets 2,3
    putc(a[0]); putc(a[1]); putc(b[0]); putc(b[1]);
    return 0;
}`
	res := analyze(t, src, []byte{1, 2, 3, 4}, taint.Options{
		SecretRanges: []taint.StreamRange{{Off: 1, Len: 2}}, // a[1] and b[0]
	})
	if res.Bits != 16 {
		t.Fatalf("bits = %d, want 16 (two secret bytes)", res.Bits)
	}
}

// Exact mode and collapsed mode agree on straight-line data flows.
func TestModesAgreeOnStraightLine(t *testing.T) {
	src := `
int main() {
    char buf[3];
    read_secret(buf, 3);
    putc(buf[0] ^ buf[1]);
    putc(buf[2] & 0x3F);
    return 0;
}`
	coll := analyze(t, src, []byte("abc"), taint.Options{})
	exact := analyze(t, src, []byte("abc"), taint.Options{Exact: true})
	if coll.Bits != exact.Bits {
		t.Fatalf("collapsed %d != exact %d", coll.Bits, exact.Bits)
	}
	if coll.Bits != 14 {
		t.Fatalf("bits = %d, want 14 (8 + 6)", coll.Bits)
	}
}

// The descriptor machinery engages for large region outputs.
func TestLazyDescriptorsEngage(t *testing.T) {
	src := `
char big[4096];
int main() {
    char buf[1];
    read_secret(buf, 1);
    __enclose(big : 4096) {
        if (buf[0] > 'm') big[0] = 1;
    }
    putc(big[100]);
    return 0;
}`
	res := analyze(t, src, []byte("z"), taint.Options{})
	// The whole array was retagged lazily and one byte read back out.
	if res.Bits != 1 {
		t.Fatalf("bits = %d, want 1 (region carries the single branch)", res.Bits)
	}
}

// Declassified data stays public through subsequent computation.
func TestDeclassifyPropagates(t *testing.T) {
	src := `
int main() {
    char buf[4];
    read_secret(buf, 4);
    __declassify(buf, 2);
    putc(buf[0] + buf[1]); // both declassified
    putc(buf[2]);          // still secret
    return 0;
}`
	res := analyze(t, src, []byte("abcd"), taint.Options{})
	if res.Bits != 8 {
		t.Fatalf("bits = %d, want 8", res.Bits)
	}
}

// Context-sensitive labels distinguish call sites: a helper called from two
// places does not collapse the two flows into one node chain.
func TestContextSensitivityDistinguishesCallSites(t *testing.T) {
	src := `
char out1, out2;
void pick(char *src0, char *dst) { *dst = *src0; }
int main() {
    char buf[2];
    read_secret(buf, 2);
    pick(buf, &out1);
    pick(buf + 1, &out2);
    putc(out1);
    putc(out2);
    return 0;
}`
	ins := analyze(t, src, []byte("ab"), taint.Options{})
	ctx := analyze(t, src, []byte("ab"), taint.Options{ContextSensitive: true})
	// Both are sound (16 bits of data flow); context sensitivity must not
	// lose information, and typically yields at least as large a graph.
	if ins.Bits != 16 || ctx.Bits != 16 {
		t.Fatalf("bits = %d/%d, want 16/16", ins.Bits, ctx.Bits)
	}
	if ctx.Graph.NumNodes() < ins.Graph.NumNodes() {
		t.Fatalf("context-sensitive graph smaller than insensitive: %d < %d",
			ctx.Graph.NumNodes(), ins.Graph.NumNodes())
	}
}

// Reset clears per-run state but keeps accumulated structure: analyzing the
// same input twice doubles accumulated capacities, not the bound's
// soundness.
func TestMultiRunSameInputStable(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc(buf[0]);
    return 0;
}`
	if single := analyze(t, src, []byte{7}, taint.Options{}); single.Bits != 8 {
		t.Fatalf("single run = %d", single.Bits)
	}
	// Two identical runs merged: the input edge accumulates to 16, the
	// output edge too; the bound stays finite and >= 8.
	multi := analyzeMulti(t, src, [][]byte{{7}, {7}})
	if multi.Bits < 8 {
		t.Fatalf("merged bits = %d, want >= 8", multi.Bits)
	}
}

func analyzeMulti(t *testing.T, src string, secrets [][]byte) *engine.Result {
	t.Helper()
	p, err := compileSrc(src)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []engine.Inputs
	for _, s := range secrets {
		inputs = append(inputs, engine.Inputs{Secret: s})
	}
	res, err := engine.New(p, engine.Config{}).AnalyzeMulti(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func compileSrc(src string) (*vm.Program, error) {
	return lang.Compile("t.mc", src)
}

func TestWarnIncludesLocation(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    if (buf[0]) putc('y'); else putc('n');
    return 0;
}`
	res := analyze(t, src, []byte{1}, taint.Options{WarnImplicit: true})
	if len(res.Warnings) == 0 {
		t.Fatal("no warnings")
	}
	if !strings.Contains(res.Warnings[0].Site, "t.mc:") {
		t.Fatalf("warning site %q lacks source location", res.Warnings[0].Site)
	}
}

// A tracker with no machine attached must warn, not panic, on an unmatched
// leave: warnf names the site when there is no PC to report.
func TestLeaveRegionWithoutMachine(t *testing.T) {
	tr := taint.New(taint.Options{})
	tr.LeaveRegion(0)
	if w := tr.Warnings(); len(w) != 1 || w[0].Site != "site=0" {
		t.Fatalf("warnings = %v, want one at site=0", w)
	}
}
