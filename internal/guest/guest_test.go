package guest

import (
	"bytes"
	"crypto/md5"
	"strings"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/workload"
)

func TestNamesAndSources(t *testing.T) {
	names := Names()
	want := []string{"battleship", "calendar", "compress", "count_punct", "divzero",
		"guessnum", "imagefilter", "interp", "sshauth", "unary", "xserver"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		if !strings.Contains(Source(n), "int main(") {
			t.Fatalf("%s: no main in source", n)
		}
	}
}

func TestAllGuestsCompile(t *testing.T) {
	for _, n := range Names() {
		t.Run(n, func(t *testing.T) {
			if p := Program(n); len(p.Code) == 0 {
				t.Fatal("empty program")
			}
		})
	}
}

func run(t *testing.T, name string, secret, public []byte) *engine.Result {
	t.Helper()
	res, err := engine.New(Program(name), engine.Config{}).Analyze(engine.Inputs{Secret: secret, Public: public})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Trap != nil {
		t.Fatalf("%s trapped: %v", name, res.Trap)
	}
	return res
}

// ------------------------------------------------------------ count_punct ---

func TestCountPunctNineBits(t *testing.T) {
	in := []byte("one. two. three? four. five. six? seven. eight. nine? ten. eleven. twelve?")
	res := run(t, "count_punct", in, nil)
	if string(res.Output) != "........" {
		t.Fatalf("output = %q", res.Output)
	}
	if res.Bits != 9 {
		t.Fatalf("bits = %d, want 9; cut %s", res.Bits, res.CutString())
	}
}

// ------------------------------------------------------------- battleship ---

func TestBattleshipMissIsOneBit(t *testing.T) {
	secret := workload.BattleshipSecret(7)
	// One shot guaranteed to miss: find a free cell from the placement.
	board := boardFrom(secret)
	var miss [2]byte
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			if board[r*10+c] == 0 {
				miss = [2]byte{byte(r), byte(c)}
			}
		}
	}
	res := run(t, "battleship", secret, workload.BattleshipShots(0, [][2]byte{miss}))
	if string(res.Output) != "0" {
		t.Fatalf("miss reply = %q", res.Output)
	}
	if res.Bits != 1 {
		t.Fatalf("miss bits = %d, want 1; cut %s", res.Bits, res.CutString())
	}
}

func TestBattleshipHitIsTwoBits(t *testing.T) {
	secret := workload.BattleshipSecret(7)
	board := boardFrom(secret)
	var hit [2]byte
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			if board[r*10+c] == 5 { // a cell of the length-5 ship: can't sink in one shot
				hit = [2]byte{byte(r), byte(c)}
			}
		}
	}
	res := run(t, "battleship", secret, workload.BattleshipShots(0, [][2]byte{hit}))
	if string(res.Output) != "10" {
		t.Fatalf("hit reply = %q", res.Output)
	}
	if res.Bits != 2 {
		t.Fatalf("non-fatal hit bits = %d, want 2; cut %s", res.Bits, res.CutString())
	}
}

func TestBattleshipBugLeaksShipType(t *testing.T) {
	secret := workload.BattleshipSecret(7)
	board := boardFrom(secret)
	var hit [2]byte
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			if board[r*10+c] != 0 {
				hit = [2]byte{byte(r), byte(c)}
			}
		}
	}
	fixed := run(t, "battleship", secret, workload.BattleshipShots(0, [][2]byte{hit}))
	buggy := run(t, "battleship", secret, workload.BattleshipShots(1, [][2]byte{hit}))
	if buggy.Bits <= fixed.Bits {
		t.Fatalf("shipTypeAt bug not visible: buggy %d <= fixed %d bits", buggy.Bits, fixed.Bits)
	}
	if buggy.Bits < 8 {
		t.Fatalf("buggy reply carries the type byte: %d bits", buggy.Bits)
	}
}

func TestBattleshipGameFlowAccumulates(t *testing.T) {
	secret := workload.BattleshipSecret(3)
	shots := [][2]byte{{0, 0}, {5, 5}, {9, 9}, {2, 7}}
	res := run(t, "battleship", secret, workload.BattleshipShots(0, shots))
	if len(res.Snapshots) != len(shots) {
		t.Fatalf("snapshots = %d, want %d", len(res.Snapshots), len(shots))
	}
	for i := 1; i < len(res.Snapshots); i++ {
		if res.Snapshots[i].Bits < res.Snapshots[i-1].Bits {
			t.Fatalf("flow decreased between shots: %+v", res.Snapshots)
		}
	}
	// Each reply costs 1 or 2 bits.
	if res.Bits < int64(len(shots)) || res.Bits > int64(2*len(shots))+1 {
		t.Fatalf("game bits = %d for %d shots", res.Bits, len(shots))
	}
}

// boardFrom mirrors place_ships for test oracles.
func boardFrom(placement []byte) [100]byte {
	var board [100]byte
	lens := []int{5, 4, 3, 2}
	for s := 0; s < 4; s++ {
		r, c, o := int(placement[3*s])%10, int(placement[3*s+1])%10, int(placement[3*s+2])&1
		for k := 0; k < lens[s]; k++ {
			var idx int
			if o == 0 {
				idx = r*10 + (c+k)%10
			} else {
				idx = ((r+k)%10)*10 + c
			}
			board[idx] = byte(lens[s])
		}
	}
	return board
}

// ---------------------------------------------------------------- sshauth ---

func TestSSHAuthDigestCorrectAnd128Bits(t *testing.T) {
	key := bytes.Repeat([]byte("K3y!"), 16) // 64 bytes
	session := []byte("session-id-0123!")
	challenge := []byte("challenge-bytes!")
	public := append(append([]byte{}, session...), challenge...)
	res := run(t, "sshauth", key, public)

	// Oracle: reproduce the toy decryption and hash with crypto/md5.
	decrypted := make([]byte, 16)
	for i := 0; i < 16; i++ {
		k0 := uint32(key[i]) | uint32(key[16+i])<<8
		k1 := uint32(key[32+i]) | uint32(key[48+i])<<8
		mix := (k0*31 + k1*17) ^ (k0 >> 3) ^ (k1 << 2)
		decrypted[i] = challenge[i] ^ byte(mix) ^ byte(mix>>8)
	}
	sum := md5.Sum(append(append([]byte{}, session...), decrypted...))
	want := append(sum[:], '\n')
	if !bytes.Equal(res.Output, want) {
		t.Fatalf("digest mismatch:\n got %x\nwant %x", res.Output, want)
	}

	// The paper's measurement: exactly 128 bits of key information.
	if res.Bits != 128 {
		t.Fatalf("bits = %d, want 128; cut %s", res.Bits, res.CutString())
	}
}

// ------------------------------------------------------------ imagefilter ---

func TestImageFilterPixelateBottleneck(t *testing.T) {
	img := workload.Image(25, 25, 1)
	res := run(t, "imagefilter", img, []byte{0})
	if len(res.Output) != len(img) {
		t.Fatalf("output size %d != input %d", len(res.Output), len(img))
	}
	// 25 block averages x 8 bits + 16 header bits, plus a little slack for
	// the block-value masks; far below the 5016-bit input.
	if res.Bits < 216 || res.Bits > 700 {
		t.Fatalf("pixelate bits = %d, want a few hundred; cut %s", res.Bits, res.CutString())
	}
}

func TestImageFilterBlurRetainsMore(t *testing.T) {
	img := workload.Image(25, 25, 1)
	pix := run(t, "imagefilter", img, []byte{0})
	blur := run(t, "imagefilter", img, []byte{1})
	if blur.Bits <= pix.Bits {
		t.Fatalf("blur (%d bits) should retain more than pixelate (%d bits)", blur.Bits, pix.Bits)
	}
	if blur.Bits > 1200 {
		t.Fatalf("blur bits = %d, still expected well under the input size", blur.Bits)
	}
}

func TestImageFilterSwirlNoBottleneck(t *testing.T) {
	img := workload.Image(25, 25, 1)
	swirl := run(t, "imagefilter", img, []byte{2})
	inputBits := int64(8 * len(img))
	// The swirl is continuous: the bound stays at (essentially) the input
	// size, as in Figure 5's right-hand image.
	if swirl.Bits < inputBits*8/10 {
		t.Fatalf("swirl bits = %d, want close to input size %d", swirl.Bits, inputBits)
	}
	if swirl.Bits > inputBits+64 {
		t.Fatalf("swirl bits = %d exceeds input size %d", swirl.Bits, inputBits)
	}
}

// ---------------------------------------------------------------- calendar ---

func TestCalendarSingleAppointmentIntersectionCut(t *testing.T) {
	// One appointment 10:00-12:00 (slots 20..24), queried 9:00-18:00.
	secret := append([]byte{1}, 20, 24)
	public := []byte{1, 9, 18}
	res := run(t, "calendar", secret, public)
	if string(res.Output) != "BBRRRRBBBBBBBBBBBB\n" {
		t.Fatalf("grid = %q", res.Output)
	}
	// The cut sits at the two 6-bit slot indices: ~12 bits, below the
	// 18-bit display bound.
	if res.Bits < 10 || res.Bits > 17 {
		t.Fatalf("sparse-calendar bits = %d, want ~12 (< 18); cut %s", res.Bits, res.CutString())
	}
}

func TestCalendarBusyDayDisplayCut(t *testing.T) {
	// Five appointments: the per-appointment cut (~12 bits each) now
	// exceeds the 18-bit display bound, so the display cut wins (§8.4).
	secret := []byte{5, 18, 20, 21, 23, 25, 27, 30, 33, 40, 44}
	public := []byte{5, 9, 18}
	res := run(t, "calendar", secret, public)
	if res.Bits < 17 || res.Bits > 19 {
		t.Fatalf("busy-calendar bits = %d, want ~18; cut %s", res.Bits, res.CutString())
	}
}

// ----------------------------------------------------------------- xserver ---

func TestXServerBoundingBox(t *testing.T) {
	text := []byte("Hello, world!")
	secret := append(append(append([]byte{}, bytes.Repeat([]byte{0}, 32)...), byte(len(text))), text...)
	res := run(t, "xserver", secret, []byte{0})
	if len(res.Output) != 4 {
		t.Fatalf("bbox output = %v", res.Output)
	}
	// The box width constrains the sum of 13 glyph widths: around 16-21
	// bits (the paper measured 21, "somewhat imprecisely"), far below the
	// 104 direct bits of the text.
	if res.Bits < 8 || res.Bits > 40 {
		t.Fatalf("bbox bits = %d, want a couple dozen; cut %s", res.Bits, res.CutString())
	}
	if res.Bits >= 8*13 {
		t.Fatalf("bbox bits = %d, not below the text size", res.Bits)
	}
}

func TestXServerPasteDirectFlow(t *testing.T) {
	secret := append(append(append([]byte{}, []byte("card=4111111111111111 pin=0000!!")...), 4), []byte("text")...)
	res := run(t, "xserver", secret, []byte{1})
	if len(res.Output) != 32 {
		t.Fatalf("paste output = %q", res.Output)
	}
	if res.Bits != 256 {
		t.Fatalf("paste bits = %d, want 256 (32 bytes)", res.Bits)
	}
}

func TestXServerExploitExfiltrates(t *testing.T) {
	secret := append(append(append([]byte{}, []byte("card=4111111111111111 pin=0000!!")...), 4), []byte("text")...)
	res := run(t, "xserver", secret, []byte{2})
	if !bytes.Contains(res.Output, []byte("4111111111111111")) {
		t.Fatalf("exploit output = %q", res.Output)
	}
	if res.Bits < 100 {
		t.Fatalf("exploit bits = %d, should be large", res.Bits)
	}
}

// ---------------------------------------------------------------- compress ---

func TestCompressRoundTripShape(t *testing.T) {
	in := workload.PiWords(2048)
	res := run(t, "compress", in, nil)
	if len(res.Output) == 0 || len(res.Output) >= len(in) {
		t.Fatalf("pi words should compress: %d -> %d", len(in), len(res.Output))
	}
	if decompressLZSS(res.Output, len(in)) == nil {
		t.Fatal("output is not a valid LZSS stream")
	}
	if !bytes.Equal(decompressLZSS(res.Output, len(in)), in) {
		t.Fatal("round trip mismatch")
	}
	// Figure 3 shape: flow ~ 8 x compressed size (plus small slack), well
	// below 8 x input size.
	outBits := int64(8 * len(res.Output))
	if res.Bits > outBits+64 {
		t.Fatalf("bits = %d exceeds compressed size %d", res.Bits, outBits)
	}
	if res.Bits < outBits/2 {
		t.Fatalf("bits = %d suspiciously below compressed size %d", res.Bits, outBits)
	}
	if res.Bits >= int64(8*len(in)) {
		t.Fatalf("bits = %d not below input size", res.Bits)
	}
}

func TestCompressTinyInputBoundedByInput(t *testing.T) {
	in := []byte("abcdefgh") // incompressible at this size
	res := run(t, "compress", in, nil)
	if res.Bits > int64(8*len(in)) {
		t.Fatalf("bits = %d exceeds input size %d", res.Bits, 8*len(in))
	}
}

// decompressLZSS is the Go-side oracle for the guest's output format.
func decompressLZSS(comp []byte, maxLen int) []byte {
	var out []byte
	i := 0
	for i < len(comp) {
		flags := comp[i]
		i++
		for b := 0; b < 8 && i < len(comp); b++ {
			if flags&(1<<b) != 0 {
				if i+1 >= len(comp) {
					return nil
				}
				off := int(comp[i]) | int(comp[i+1]&0x0F)<<8
				l := int(comp[i+1]>>4) + 3
				i += 2
				start := len(out) - off
				if start < 0 {
					return nil
				}
				for k := 0; k < l; k++ {
					out = append(out, out[start+k])
				}
			} else {
				out = append(out, comp[i])
				i++
			}
			if len(out) > maxLen {
				return nil
			}
		}
	}
	return out
}

// ------------------------------------------------------------ unary/divzero ---

func TestUnaryGuest(t *testing.T) {
	res := run(t, "unary", []byte{5}, nil)
	if string(res.Output) != "*****" {
		t.Fatalf("output = %q", res.Output)
	}
	if res.Bits != 6 { // min(8, n+1) with n=5
		t.Fatalf("bits = %d, want 6", res.Bits)
	}
}

func TestDivzeroGuest(t *testing.T) {
	zero := []byte{9, 0, 0, 0, 0, 0, 0, 0}
	nonzero := []byte{9, 0, 0, 0, 3, 0, 0, 0}
	r1 := run(t, "divzero", zero, nil)
	r2 := run(t, "divzero", nonzero, nil)
	if !bytes.Contains(r1.Output, []byte("error")) || !bytes.Contains(r2.Output, []byte("ok")) {
		t.Fatalf("outputs: %q / %q", r1.Output, r2.Output)
	}
	if r1.Bits != 1 || r2.Bits != 1 {
		t.Fatalf("bits = %d/%d, want 1/1", r1.Bits, r2.Bits)
	}
}

// ------------------------------------------------------------------ interp ---

// buildScript assembles interpreter bytecode with a length prefix.
func buildScript(ops ...byte) []byte {
	return append([]byte{byte(len(ops))}, ops...)
}

// §10.3: the measured flow reflects what the interpreted script computes,
// not the interpreter's own code.
func TestInterpreterMaskedOutput(t *testing.T) {
	// OUT(input[3] & 0x0F): 4 bits.
	script := buildScript(
		1, 3, // PUSHIN 3
		2, 0x0F, // PUSHK 15
		5, // AND
		7, // OUT
		0, // HALT
	)
	secret := bytes.Repeat([]byte{0xA7}, 64)
	res := run(t, "interp", secret, script)
	if len(res.Output) != 1 || res.Output[0] != 0xA7&0x0F {
		t.Fatalf("output = %v", res.Output)
	}
	if res.Bits != 4 {
		t.Fatalf("bits = %d, want 4 (the script masks to a nibble); cut %s", res.Bits, res.CutString())
	}
}

func TestInterpreterXorCombines(t *testing.T) {
	// OUT(input[0] ^ input[1]): 8 bits, not 16.
	script := buildScript(1, 0, 1, 1, 4, 7, 0)
	res := run(t, "interp", []byte("abcdefgh"), script)
	if res.Bits != 8 {
		t.Fatalf("bits = %d, want 8", res.Bits)
	}
}

func TestInterpreterDumpsInput(t *testing.T) {
	// OUT(input[0]); OUT(input[1]); OUT(input[2]): 24 bits.
	script := buildScript(1, 0, 7, 1, 1, 7, 1, 2, 7, 0)
	res := run(t, "interp", []byte("wxyz"), script)
	if string(res.Output) != "wxy" {
		t.Fatalf("output = %q", res.Output)
	}
	if res.Bits != 24 {
		t.Fatalf("bits = %d, want 24", res.Bits)
	}
}

func TestInterpreterSecretBranch(t *testing.T) {
	// if (input[0] < 100) skip the first OUT: the JNZ condition is secret.
	script := buildScript(
		1, 0, // PUSHIN 0
		2, 100, // PUSHK 100
		9,     // LT
		10, 3, // JNZ +3 (skip the next 3 bytes: PUSHK 'A'; OUT)
		2, 'A',
		7,
		2, 'B',
		7,
		0,
	)
	lo := run(t, "interp", bytes.Repeat([]byte{5}, 64), script)
	hi := run(t, "interp", bytes.Repeat([]byte{200}, 64), script)
	if string(lo.Output) != "B" || string(hi.Output) != "AB" {
		t.Fatalf("outputs %q / %q", lo.Output, hi.Output)
	}
	// One secret comparison steers the interpreter's control flow: the
	// measurement should be a couple of bits (the 1-bit condition plus the
	// interpreter-level implicit flows it causes), far below the 512-bit
	// secret input.
	for _, r := range []int64{lo.Bits, hi.Bits} {
		if r < 1 || r > 40 {
			t.Fatalf("branchy script bits = %d/%d, want small", lo.Bits, hi.Bits)
		}
	}
}

// §7: repeated requests. Within one analyzed session, probing the same
// cell twice reveals no more than probing it once (the destroyed cell's
// state is public on the second probe); probing two distinct cells reveals
// two bits. Across independently merged runs, capacities sum — a sound
// upper bound that never undercounts repetition.
func TestBattleshipRepeatedRequests(t *testing.T) {
	secret := workload.BattleshipSecret(7)
	board := boardFrom(secret)
	var misses [][2]byte
	for r := 0; r < 10 && len(misses) < 2; r++ {
		for c := 0; c < 10 && len(misses) < 2; c++ {
			if board[r*10+c] == 0 {
				misses = append(misses, [2]byte{byte(r), byte(c)})
			}
		}
	}
	same := run(t, "battleship", secret, workload.BattleshipShots(0, [][2]byte{misses[0], misses[0]}))
	diff := run(t, "battleship", secret, workload.BattleshipShots(0, [][2]byte{misses[0], misses[1]}))
	if same.Bits != 1 {
		t.Fatalf("repeated probe = %d bits, want 1 (asks the same question)", same.Bits)
	}
	if diff.Bits != 2 {
		t.Fatalf("distinct probes = %d bits, want 2", diff.Bits)
	}

	// Merged independent runs: the bound sums (soundness under merging),
	// so repetition across sessions is still counted conservatively.
	prog := Program("battleship")
	merged, err := engine.New(prog, engine.Config{}).AnalyzeMulti([]engine.Inputs{
		{Secret: secret, Public: workload.BattleshipShots(0, [][2]byte{misses[0]})},
		{Secret: secret, Public: workload.BattleshipShots(0, [][2]byte{misses[0]})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Bits < 1 || merged.Bits > 2 {
		t.Fatalf("merged repeated runs = %d bits", merged.Bits)
	}
}
