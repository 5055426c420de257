package flowcheck

import (
	"strings"
	"testing"
)

func analyze(t *testing.T, src string, in Inputs, cfg Config) *Result {
	t.Helper()
	res, err := AnalyzeSource("test.mc", src, in, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Trap != nil {
		t.Fatalf("guest trapped: %v", res.Trap)
	}
	return res
}

// A program that never touches its secret input reveals 0 bits
// (noninterference, §3.1).
func TestNoSecretUseIsZero(t *testing.T) {
	src := `
int main() {
    char buf[8];
    read_secret(buf, 8);
    char *msg; msg = "public!";
    write_out(msg, 7);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("12345678")}, Config{})
	if res.Bits != 0 {
		t.Fatalf("bits = %d, want 0", res.Bits)
	}
}

// Copying one secret byte to the output reveals exactly 8 bits.
func TestDirectCopyByte(t *testing.T) {
	src := `
int main() {
    char buf[8];
    read_secret(buf, 8);
    putc(buf[3]);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("abcdefgh")}, Config{})
	if res.Bits != 8 {
		t.Fatalf("bits = %d, want 8", res.Bits)
	}
}

// Copying a secret byte many times still reveals only 8 bits — the
// single-output constraint of Figure 1 that plain tainting misses.
func TestCopiesDoNotMultiply(t *testing.T) {
	src := `
int main() {
    char buf[4];
    read_secret(buf, 4);
    for (int i = 0; i < 10; i++) putc(buf[0]);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("wxyz")}, Config{})
	if res.Bits != 8 {
		t.Fatalf("bits = %d, want 8 (copies must not multiply information)", res.Bits)
	}
	if res.TaintedOutputBits != 80 {
		t.Fatalf("tainting bound = %d, want 80", res.TaintedOutputBits)
	}
}

// Masking with a public constant reduces the bit capacity.
func TestBitMaskingReducesFlow(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc(buf[0] & 0x0F);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("K")}, Config{})
	if res.Bits != 4 {
		t.Fatalf("bits = %d, want 4 (low nibble only)", res.Bits)
	}
}

// XOR of two secret bytes: 8 bits, not 16 — the result holds one byte.
func TestXorCombinesToWidth(t *testing.T) {
	src := `
int main() {
    char buf[2];
    read_secret(buf, 2);
    putc(buf[0] ^ buf[1]);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("ab")}, Config{})
	if res.Bits != 8 {
		t.Fatalf("bits = %d, want 8", res.Bits)
	}
}

// A branch on secret data outside any region leaks 1 bit via the output
// chain, even when the printed values themselves are public constants.
func TestBranchImplicitFlow(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    if (buf[0] > 'm') putc('H');
    else putc('L');
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("q")}, Config{})
	if res.Bits != 1 {
		t.Fatalf("bits = %d, want 1 (one branch)", res.Bits)
	}
}

// An implicit flow after the last explicit output can still escape through
// the observability of termination itself (§3.1 treats distinguishable
// terminal behavior as output; this is also what makes the §3.2 unary
// printer reveal n+1 bits, including n = 0). But it cannot retroactively
// ride the earlier output: a mid-run snapshot taken right after the putc
// shows 0 bits.
func TestImplicitAfterLastOutputOrdering(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc('x');
    __flownote();
    if (buf[0] > 'm') { int dummy; dummy = 1; }
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("q")}, Config{})
	if len(res.Snapshots) != 1 || res.Snapshots[0].Bits != 0 {
		t.Fatalf("snapshot after putc should be 0 bits, got %+v", res.Snapshots)
	}
	if res.Bits != 1 {
		t.Fatalf("final bits = %d, want 1 (escapes via exit observability)", res.Bits)
	}
}

// ...but an implicit flow before an output does escape.
func TestImplicitBeforeOutputLeaks(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    int x; x = 0;
    if (buf[0] > 'm') { x = 1; }
    putc('x');
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("q")}, Config{})
	if res.Bits != 1 {
		t.Fatalf("bits = %d, want 1", res.Bits)
	}
}

// Declassification cuts the flow.
func TestDeclassify(t *testing.T) {
	src := `
int main() {
    char buf[4];
    read_secret(buf, 4);
    __declassify(buf, 4);
    write_out(buf, 4);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("key!")}, Config{})
	if res.Bits != 0 {
		t.Fatalf("bits = %d, want 0 after declassification", res.Bits)
	}
}

// The paper's Figure 2 example: with enclosure regions, an execution that
// prints the more common punctuation character reveals 9 bits — 1 bit for
// which character won, 8 bits for the count (§2.4).
const countPunctSrc = `
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
    char buf[512];
    int n; n = read_secret(buf, 511);
    buf[n] = '\0';
    count_punct(buf);
    return 0;
}`

func TestFigure2NineBits(t *testing.T) {
	// Input with 8 dots and 4 question marks, like the paper's source.
	in := "one. two. three? four. five. six? seven. eight. nine? ten. eleven. twelve?"
	res := analyze(t, countPunctSrc, Inputs{Secret: []byte(in)}, Config{})
	if string(res.Output) != "........" {
		t.Fatalf("output = %q, want 8 dots", res.Output)
	}
	if res.Bits != 9 {
		t.Fatalf("bits = %d, want 9 (1 for the winner + 8 for the count); cut: %s",
			res.Bits, res.CutString())
	}
	// The min cut is a 1-bit edge (the winner comparison) plus an 8-bit
	// edge (num after the second region), as §2.4 describes; min cuts are
	// not unique, so accept any equivalent 1+8 split.
	edges := res.DescribeCut()
	var have1, have8 bool
	for _, e := range edges {
		if e.Bits == 1 {
			have1 = true
		}
		if e.Bits == 8 {
			have8 = true
		}
	}
	if len(edges) != 2 || !have1 || !have8 {
		t.Fatalf("cut structure unexpected: %s", res.CutString())
	}
}

// Without enclosure regions the same program is measured much more
// coarsely: every comparison against the secret leaks a bit into the chain
// (§2.4's 1855-bit blowup, scaled to our input).
func TestFigure2WithoutRegionsBlowsUp(t *testing.T) {
	src := strings.ReplaceAll(countPunctSrc, "__enclose(num_dot, num_qm)", "")
	src = strings.ReplaceAll(src, "__enclose(common, num)", "")
	in := "one. two. three? four. five. six? seven. eight. nine? ten. eleven. twelve?"
	res := analyze(t, src, Inputs{Secret: []byte(in)}, Config{})
	if res.Bits <= 9 {
		t.Fatalf("bits = %d, want far more than 9 without regions", res.Bits)
	}
}

// The tainting bound for Figure 2 counts all tainted output bits (64 for
// the paper's run of 8 output characters).
func TestFigure2TaintingBound(t *testing.T) {
	in := "one. two. three? four. five. six? seven. eight. nine? ten. eleven. twelve?"
	res := analyze(t, countPunctSrc, Inputs{Secret: []byte(in)}, Config{})
	if res.TaintedOutputBits != 64 {
		t.Fatalf("tainting bound = %d, want 64 (8 fully-tainted output bytes)", res.TaintedOutputBits)
	}
}

// Exact (uncollapsed) mode gives the same answer on the paper's input. (On
// shorter inputs the tool may instead find the §3.2 unary cut at the print
// loop's tests, min(8, n+1) — sound for a single run.)
func TestFigure2ExactMode(t *testing.T) {
	in := "one. two. three? four. five. six? seven. eight. nine? ten. eleven. twelve?"
	res := analyze(t, countPunctSrc, Inputs{Secret: []byte(in)},
		Config{Taint: TaintOptions{Exact: true}})
	if res.Bits != 9 {
		t.Fatalf("exact-mode bits = %d, want 9; cut: %s", res.Bits, res.CutString())
	}
}

// On a short run the tool picks the smaller unary cut: printing n
// characters is measured as min(8, n+1) + 1 bits — the single-run-sound
// alternative coding §3.2 discusses.
func TestFigure2UnaryCutOnShortRun(t *testing.T) {
	in := "one. two. three? four." // 3 dots, 1 question mark
	res := analyze(t, countPunctSrc, Inputs{Secret: []byte(in)},
		Config{Taint: TaintOptions{Exact: true}})
	if string(res.Output) != "..." {
		t.Fatalf("output = %q", res.Output)
	}
	// Unary cut: the n+1 = 4 print-loop tests at 1 bit each, plus the
	// 1-bit winner comparison — cheaper than the 8-bit binary counter.
	if res.Bits != 5 {
		t.Fatalf("bits = %d, want 5 = (n+1) + 1 with n=3; cut: %s", res.Bits, res.CutString())
	}
}

// Context-sensitive collapsing also gives 9 bits on the paper's input.
func TestFigure2ContextSensitive(t *testing.T) {
	in := "one. two. three? four. five. six? seven. eight. nine? ten. eleven. twelve?"
	res := analyze(t, countPunctSrc, Inputs{Secret: []byte(in)},
		Config{Taint: TaintOptions{ContextSensitive: true}})
	if res.Bits != 9 {
		t.Fatalf("ctx-sensitive bits = %d, want 9", res.Bits)
	}
}

// An enclosure region with no implicit flows inside has no effect (§8.6).
func TestInactiveRegionIsFree(t *testing.T) {
	src := `
int main() {
    char buf[2];
    read_secret(buf, 2);
    char x;
    __enclose(x) {
        x = buf[0] ^ buf[1]; // pure data flow, no branches on secrets
    }
    putc(x);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("ab")}, Config{})
	if res.Bits != 8 {
		t.Fatalf("bits = %d, want 8 (region inactive, pure data flow)", res.Bits)
	}
}

// The dynamic soundness check: a location written inside a region but not
// declared still gets retagged at leave (auto-extension), so the flow is
// not underestimated.
func TestRegionAutoExtension(t *testing.T) {
	src := `
int leak;
int main() {
    char buf[1];
    read_secret(buf, 1);
    int declared; declared = 0;
    __enclose(declared) {
        if (buf[0] > 'm') leak = 1;
        else leak = 2;
    }
    putc((char)leak);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("z")}, Config{})
	if res.Bits < 1 {
		t.Fatalf("bits = %d: auto-extension failed, implicit flow lost", res.Bits)
	}
}

// Indirect jumps through a secret index (dense switch -> jump table) are
// pointer implicit flows.
func TestJumpTableImplicit(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    int x; x = buf[0] % 5;
    switch (x) {
    case 0: putc('a'); break;
    case 1: putc('b'); break;
    case 2: putc('c'); break;
    case 3: putc('d'); break;
    case 4: putc('e'); break;
    }
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("7")}, Config{})
	if res.Bits < 1 {
		t.Fatalf("bits = %d, want >= 1 (table dispatch on secret)", res.Bits)
	}
	if res.Bits > 32 {
		t.Fatalf("bits = %d, implausibly large", res.Bits)
	}
}

// Loads with secret addresses leak the secret address bits, even when the
// loaded data is public (§2.2's array example).
func TestSecretIndexLoad(t *testing.T) {
	src := `
char table[16];
int main() {
    for (int i = 0; i < 16; i++) table[i] = (char)('A' + i);
    char buf[1];
    read_secret(buf, 1);
    putc(table[buf[0] & 0x0F]);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("\x05")}, Config{})
	// The address has 4 secret bits; the loaded byte is public data. The
	// flow must be >= 4 even though tainting of the data alone says 0.
	if res.Bits < 4 {
		t.Fatalf("bits = %d, want >= 4 (secret-index load)", res.Bits)
	}
}

// Multi-run analysis: merged graphs are jointly sound (§3.2). Running the
// unary-printer on many inputs must yield a single consistent bound, not
// per-run min(8, n+1).
func TestMultiRunConsistency(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    char n; n = buf[0];
    while (n--) putc('*');
    return 0;
}`
	prog := mustCompile(t, src)
	var inputs []Inputs
	for _, n := range []byte{0, 1, 3, 200} {
		inputs = append(inputs, Inputs{Secret: []byte{n}})
	}
	res, err := NewAnalyzer(prog, Config{}).AnalyzeMulti(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Jointly, distinguishing these runs consistently costs at least 8
	// bits at the binary-counter cut; the merged graph must not report the
	// unsound min(8, n+1) = 1 of the n=0 run.
	if res.Bits < 8 {
		t.Fatalf("merged bits = %d, want >= 8", res.Bits)
	}
}

// Snapshots via __flownote give non-decreasing intermediate flows (§8.1).
func TestFlowSnapshots(t *testing.T) {
	src := `
int main() {
    char buf[3];
    read_secret(buf, 3);
    __flownote();
    putc(buf[0]);
    __flownote();
    putc(buf[1]);
    __flownote();
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("abc")}, Config{})
	s := res.Snapshots
	if len(s) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(s))
	}
	if s[0].Bits != 0 || s[1].Bits != 8 || s[2].Bits != 16 {
		t.Fatalf("snapshot bits = %d,%d,%d, want 0,8,16", s[0].Bits, s[1].Bits, s[2].Bits)
	}
}

// WarnImplicit surfaces unenclosed implicit flows (§8's annotation-finding
// workflow).
func TestWarnImplicit(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    if (buf[0] > 'm') putc('H'); else putc('L');
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("q")},
		Config{Taint: TaintOptions{WarnImplicit: true}})
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w.Msg, "implicit flow") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no implicit-flow warning; warnings: %v", res.Warnings)
	}
}

// Arithmetic that provably cancels secrecy (x & 0) flows nothing.
func TestPublicZeroAnd(t *testing.T) {
	src := `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc(buf[0] & 0);
    return 0;
}`
	res := analyze(t, src, Inputs{Secret: []byte("s")}, Config{})
	if res.Bits != 0 {
		t.Fatalf("bits = %d, want 0 (x & 0 is public)", res.Bits)
	}
}

// The division example of §3.1: branching on divisor-is-zero reveals one
// bit per execution under the adversarial model.
func TestDivisionOneBit(t *testing.T) {
	src := `
int main() {
    char buf[8];
    read_secret(buf, 8);
    int a; a = buf[0];
    int b; b = buf[4];
    if (b == 0) {
        char *msg; msg = "error: divide by zero\n";
        write_out(msg, 22);
    } else {
        int q; q = a / b; // quotient is computed but never printed
        putc('k');
    }
    return 0;
}`
	for _, secret := range []string{"\x05\x00\x00\x00\x03\x00\x00\x00", "\x02\x00\x00\x00\x00\x00\x00\x00"} {
		res := analyze(t, src, Inputs{Secret: []byte(secret)}, Config{})
		if res.Bits != 1 {
			t.Fatalf("bits = %d, want 1 for secret %q", res.Bits, secret)
		}
	}
}

// Graph structure invariants hold on a nontrivial run.
func TestGraphValidates(t *testing.T) {
	in := "one. two. three? four."
	res := analyze(t, countPunctSrc, Inputs{Secret: []byte(in)}, Config{})
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	if res.Cut.Capacity != res.Bits {
		t.Fatalf("min cut capacity %d != max flow %d", res.Cut.Capacity, res.Bits)
	}
}

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile("test.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// §10.1 extension: per-class analysis measures each kind of secret
// independently; the sum of per-class bounds can exceed the joint bound
// because classes share output capacity (crowding out).
func TestAnalyzeClasses(t *testing.T) {
	src := `
int main() {
    char a[1];
    char b[1];
    read_secret(a, 1); // Alice's secret
    read_secret(b, 1); // Bob's secret
    putc(a[0] ^ b[0]); // one byte can carry 8 bits of either, not both
    return 0;
}`
	prog := mustCompile(t, src)
	in := Inputs{Secret: []byte{0x5A, 0xA5}}
	classes := []SecretClass{
		{Name: "alice", Off: 0, Len: 1},
		{Name: "bob", Off: 1, Len: 1},
	}
	ca, err := AnalyzeClassSet(prog, in, classes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	per := ca.Classes
	for _, c := range per {
		if c.Bits != 8 {
			t.Errorf("class %s = %d bits, want 8", c.Class.Name, c.Bits)
		}
	}
	joint, err := Analyze(prog, in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if joint.Bits != 8 {
		t.Fatalf("joint = %d bits, want 8", joint.Bits)
	}
	if per[0].Bits+per[1].Bits <= joint.Bits {
		t.Fatal("expected per-class sum to exceed the joint bound (shared capacity)")
	}
}

// A class covering none of the used input reveals nothing.
func TestAnalyzeClassesDisjoint(t *testing.T) {
	src := `
int main() {
    char buf[4];
    read_secret(buf, 4);
    putc(buf[0]);
    return 0;
}`
	prog := mustCompile(t, src)
	ca, err := AnalyzeClassSet(prog, Inputs{Secret: []byte("wxyz")}, []SecretClass{
		{Name: "used", Off: 0, Len: 1},
		{Name: "unused", Off: 2, Len: 2},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	per := ca.Classes
	if per[0].Bits != 8 || per[1].Bits != 0 {
		t.Fatalf("per-class = %d/%d, want 8/0", per[0].Bits, per[1].Bits)
	}
}
