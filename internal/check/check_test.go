package check

import (
	"strings"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/lang"
	"flowcheck/internal/vm"
)

// compile + analyze + return cut sites for a source.
func cutFor(t *testing.T, src string, secret []byte) (*vm.Program, []uint32, *engine.Result) {
	t.Helper()
	prog, err := lang.Compile("check.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(prog, engine.Config{}).Analyze(engine.Inputs{Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	return prog, res.CutSites(), res
}

const copySrc = `
int main() {
    char buf[4];
    read_secret(buf, 4);
    putc(buf[0]);
    return 0;
}`

func TestTaintCheckAllowsCutFlows(t *testing.T) {
	prog, cut, res := cutFor(t, copySrc, []byte("abcd"))
	r, err := RunTaintCheck(prog, []byte("wxyz"), nil, cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The checker works at site granularity (the paper's "static
	// representation of the edges", §6.1), so a cut landing at the input
	// read charges all bytes read there: budget up to 8 bits per input
	// byte, but never a violation.
	if !r.OK(res.Bits + 24) {
		t.Fatalf("check failed: revealed=%d violations=%v (budget %d)", r.RevealedBits, r.Violations, res.Bits)
	}
	if r.RevealedBits == 0 {
		t.Fatal("cut crossing should charge revealed bits")
	}
}

func TestTaintCheckDetectsUncutLeak(t *testing.T) {
	// Derive the cut from a run of a *different* program (no leak), then
	// check the leaking program with an empty cut: the output is a
	// violation.
	prog, err := lang.Compile("leak.mc", copySrc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTaintCheck(prog, []byte("wxyz"), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) == 0 {
		t.Fatal("leak past an empty cut must be a violation")
	}
	if r.OK(1000) {
		t.Fatal("OK must be false when violations exist")
	}
}

func TestTaintCheckCleanProgramPasses(t *testing.T) {
	src := `
int main() {
    char buf[4];
    read_secret(buf, 4);
    char *msg; msg = "fine";
    write_out(msg, 4);
    return 0;
}`
	prog, err := lang.Compile("clean.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTaintCheck(prog, []byte("ssss"), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK(0) {
		t.Fatalf("clean program should pass with zero budget: %+v", r.Violations)
	}
}

func TestTaintCheckImplicitViolation(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    if (buf[0] > 'm') putc('H'); else putc('L');
    return 0;
}`
	prog, err := lang.Compile("imp.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTaintCheck(prog, []byte("q"), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range r.Violations {
		if strings.Contains(v.Msg, "implicit") {
			found = true
		}
	}
	if !found {
		t.Fatalf("implicit flow not flagged: %v", r.Violations)
	}
}

// A cut derived from the analysis makes the same program pass the taint
// check: analysis and checker agree on where information crosses.
func TestTaintCheckCutFromAnalysis(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc(buf[0] & 0x0F);
    return 0;
}`
	prog, cut, res := cutFor(t, src, []byte("K"))
	r, err := RunTaintCheck(prog, []byte("J"), nil, cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK(res.Bits + 8) {
		t.Fatalf("violations: %v (revealed %d)", r.Violations, r.RevealedBits)
	}
}

func TestLockstepCleanProgram(t *testing.T) {
	src := `
int main() {
    char buf[4];
    read_secret(buf, 4);
    char *msg; msg = "same";
    write_out(msg, 4);
    return 0;
}`
	prog, err := lang.Compile("ls.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunLockstep(prog, []byte("ssss"), []byte("dddd"), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatalf("clean program diverged: %s", r.Divergence)
	}
	if r.BitsTransferred != 0 {
		t.Fatalf("no cut, no transfer expected, got %d", r.BitsTransferred)
	}
}

func TestLockstepDetectsLeak(t *testing.T) {
	prog, err := lang.Compile("ls2.mc", copySrc)
	if err != nil {
		t.Fatal(err)
	}
	// No cut: the secret byte reaches the output, so the copies diverge.
	r, err := RunLockstep(prog, []byte("abcd"), []byte("wxyz"), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK {
		t.Fatal("leak must cause divergence")
	}
	if !strings.Contains(r.Divergence, "diverged") && !strings.Contains(r.Divergence, "output") {
		t.Fatalf("unexpected divergence message: %s", r.Divergence)
	}
}

func TestLockstepWithCutPasses(t *testing.T) {
	prog, cut, _ := cutFor(t, copySrc, []byte("abcd"))
	r, err := RunLockstep(prog, []byte("abcd"), []byte("wxyz"), nil, cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatalf("cut values copied, but still diverged: %s", r.Divergence)
	}
	if r.BitsTransferred == 0 {
		t.Fatal("transfer at cut expected")
	}
}

func TestLockstepControlFlowCut(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    if (buf[0] > 'm') putc('H'); else putc('L');
    return 0;
}`
	prog, cut, _ := cutFor(t, src, []byte("q"))
	// Without the cut: divergence (different branch taken).
	r, err := RunLockstep(prog, []byte("q"), []byte("a"), nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK {
		t.Fatal("secret-dependent branch must diverge without a cut")
	}
	// With the analysis-derived cut: the branch decision is transferred.
	r, err = RunLockstep(prog, []byte("q"), []byte("a"), nil, cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatalf("cut should reconcile the branch: %s", r.Divergence)
	}
}

func TestLockstepCountPunct(t *testing.T) {
	src := `
void count_punct(char *buf) {
    char num_dot, num_qm, num;
    char common;
    int i;
    num_dot = 0; num_qm = 0;
    __enclose(num_dot, num_qm) {
        for (i = 0; buf[i] != '\0'; i++) {
            if (buf[i] == '.') num_dot++;
            else if (buf[i] == '?') num_qm++;
        }
    }
    __enclose(common, num) {
        if (num_dot > num_qm) { common = '.'; num = num_dot; }
        else                  { common = '?'; num = num_qm; }
    }
    while (num--) putc(common);
}
int main() {
    char buf[128];
    int n; n = read_secret(buf, 127);
    buf[n] = '\0';
    count_punct(buf);
    return 0;
}`
	secret := []byte("one. two. three? four. five. six? seven. eight.")
	dummy := make([]byte, len(secret))
	for i := range dummy {
		dummy[i] = 'x'
	}
	prog, cut, _ := cutFor(t, src, secret)
	r, err := RunLockstep(prog, secret, dummy, nil, cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatalf("count_punct lockstep failed: %s", r.Divergence)
	}
	if string(r.Output) == "" {
		t.Fatal("no output")
	}
}

func TestLockstepRejectsLengthMismatch(t *testing.T) {
	prog, err := lang.Compile("ls3.mc", copySrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLockstep(prog, []byte("abcd"), []byte("ab"), nil, nil, 0); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestLockstepShadowTrapIsViolation(t *testing.T) {
	// The shadow divides by its (different) input: secret 2 runs fine, the
	// dummy 0 traps — a detectable policy-relevant divergence, not an
	// infrastructure error.
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    int d; d = (int)buf[0];
    int q; q = 100 / d;
    putc('k');
    return 0;
}`
	prog, err := lang.Compile("lt.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunLockstep(prog, []byte{2}, []byte{0}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK || !strings.Contains(r.Divergence, "trap") {
		t.Fatalf("shadow trap not flagged: ok=%v div=%q", r.OK, r.Divergence)
	}
}

func TestLockstepExitCodeDivergence(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    return (int)buf[0];
}`
	prog, err := lang.Compile("le.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunLockstep(prog, []byte{3}, []byte{9}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK || !strings.Contains(r.Divergence, "exit") {
		t.Fatalf("exit-code divergence not flagged: ok=%v div=%q", r.OK, r.Divergence)
	}
}

func TestLockstepOutputLengthDivergence(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    char n; n = buf[0];
    while (n--) putc('*');
    return 0;
}`
	prog, err := lang.Compile("ll.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunLockstep(prog, []byte{2}, []byte{5}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK {
		t.Fatal("different output lengths must diverge")
	}
}

func TestTaintCheckStepsReported(t *testing.T) {
	prog, err := lang.Compile("ts.mc", copySrc)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := RunTaintCheck(prog, []byte("abcd"), nil, nil, 0)
	if r.Steps == 0 {
		t.Fatal("steps not counted")
	}
	if r.ExitCode != 0 {
		t.Fatalf("exit = %d", r.ExitCode)
	}
}

func TestViolationStringFormat(t *testing.T) {
	v := Violation{Where: "f.mc:3(main)", Bits: 8, Msg: "leak"}
	if s := v.String(); !strings.Contains(s, "f.mc:3") || !strings.Contains(s, "8 bits") {
		t.Fatalf("violation format: %q", s)
	}
}
