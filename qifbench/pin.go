package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/workload"
)

// pinned.json holds every answer the benchmark can ask for, computed by
// -pin at the commit that defined the benchmark: per compress pool item
// the bits and exact counts, per fleet guest and variant the bits of each
// request kind. Runs compare against it, so an answer that changes bits
// fails the run.
//
//go:embed pinned.json
var pinnedJSON []byte

type compressPin struct {
	Bits  int64  `json:"bits"`
	Steps uint64 `json:"steps"`
	Edges int    `json:"edges"` // graph edges; merged graph edges for exact-joint
}

// guestPins are one fleet guest's pinned bits, indexed by variant. Class
// pins are absent for guests whose secret is a single byte.
type guestPins struct {
	Plain    []int64 `json:"plain"`
	Adaptive []int64 `json:"adaptive"`
	Joint    []int64 `json:"joint,omitempty"`
	ClassA   []int64 `json:"class_a,omitempty"`
	ClassB   []int64 `json:"class_b,omitempty"`
}

type pinTable struct {
	Fig3  []compressPin         `json:"fig3-compress"`
	Exact []compressPin         `json:"exact-joint"`
	Fleet map[string]*guestPins `json:"fleet-interactive"`
}

var pins pinTable

func loadPins() error {
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return fmt.Errorf("pinned.json: %w", err)
	}
	if len(pins.Fig3) != poolSize || len(pins.Exact) != poolSize || len(pins.Fleet) != len(fleetGuests) {
		return fmt.Errorf("pinned.json does not cover the workload pools; regenerate it with -pin")
	}
	for _, g := range fleetGuests {
		p := pins.Fleet[g]
		if p == nil || len(p.Plain) != fleetVariants || len(p.Adaptive) != fleetVariants {
			return fmt.Errorf("pinned.json: fleet guest %s incomplete", g)
		}
	}
	return nil
}

func (p *pinTable) compress(name string, i int) compressPin {
	if name == "exact-joint" {
		return p.Exact[i]
	}
	return p.Fig3[i]
}

// writePins recomputes the pinned answers directly through the engine.
func writePins(w io.Writer) error {
	var t pinTable
	for _, exact := range []bool{false, true} {
		bb, _ := newCompress(exact)(0, 0, false)
		b := bb.(*compressBench)
		if err := b.setup(); err != nil {
			return err
		}
		for i := 0; i < poolSize; i++ {
			res, err := b.op(i)
			if err != nil {
				return fmt.Errorf("%s item %d: %w", b.name, i, err)
			}
			p := compressPin{Bits: res.Bits, Steps: res.Steps, Edges: len(res.Graph.Edges)}
			if exact {
				p.Steps = 0
				for _, r := range res.Runs {
					p.Steps += r.Steps
				}
				t.Exact = append(t.Exact, p)
			} else {
				t.Fig3 = append(t.Fig3, p)
			}
		}
	}
	t.Fleet = map[string]*guestPins{}
	for _, name := range fleetGuests {
		prog := guest.Program(name)
		plain := engine.New(prog, engine.Config{})
		adaptive := engine.New(prog, engine.Config{Precision: engine.PrecisionAdaptive, AdaptiveThreshold: adaptiveThreshold})
		gp := &guestPins{}
		for v := 0; v < fleetVariants; v++ {
			secret, public := variantInputs(name, v)
			in := engine.Inputs{Secret: secret, Public: public}
			r, err := plain.Analyze(in)
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", name, v, err)
			}
			gp.Plain = append(gp.Plain, r.Bits)
			if r, err = adaptive.Analyze(in); err != nil {
				return fmt.Errorf("%s variant %d adaptive: %w", name, v, err)
			}
			gp.Adaptive = append(gp.Adaptive, r.Bits)
			classes := classesFor(secret)
			if classes == nil {
				continue
			}
			ca, err := plain.AnalyzeClassSet(in, classes)
			if err != nil {
				return fmt.Errorf("%s variant %d classes: %w", name, v, err)
			}
			for _, c := range ca.Classes {
				if c.Err != nil {
					return fmt.Errorf("%s variant %d class %s: %w", name, v, c.Class.Name, c.Err)
				}
			}
			gp.Joint = append(gp.Joint, ca.Joint.Bits)
			gp.ClassA = append(gp.ClassA, ca.Classes[0].Bits)
			gp.ClassB = append(gp.ClassB, ca.Classes[1].Bits)
		}
		t.Fleet[name] = gp
	}
	return writeCompactJSON(w, t)
}

// writeCompactJSON writes one top-level field per line, values compact.
func writeCompactJSON(w io.Writer, t pinTable) error {
	fields := []struct {
		key string
		v   any
	}{{"fig3-compress", t.Fig3}, {"exact-joint", t.Exact}}
	if _, err := fmt.Fprintln(w, "{"); err != nil {
		return err
	}
	for _, f := range fields {
		b, err := json.Marshal(f.v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%q: %s,\n", f.key, b); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, `"fleet-interactive": {`); err != nil {
		return err
	}
	for i, name := range fleetGuests {
		b, err := json.Marshal(t.Fleet[name])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(fleetGuests)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%q: %s%s\n", name, b, sep); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}}")
	return err
}

// variantInputs returns fleet variant v of a guest's inputs: the guest's
// sample inputs with a few secret bytes changed in a way that keeps the
// input well-formed for that guest.
func variantInputs(name string, v int) (secret, public []byte) {
	sample, pub, _ := guest.SampleInputs(name)
	secret = append([]byte(nil), sample...)
	switch name {
	case "guessnum":
		return []byte{byte(v*37 + 11)}, []byte{byte(v*101 + 128)}
	case "battleship":
		return workload.BattleshipSecret(int64(v) + 1), pub
	case "calendar":
		s0 := 14 + v%14
		s1 := 32 + (v/14)%10
		return workload.CalendarSecret([]workload.Appointment{
			{StartSlot: s0, EndSlot: s0 + 1 + (v/3)%3},
			{StartSlot: s1, EndSlot: s1 + 1 + v%4},
		}), pub
	case "xserver":
		// Only the card/pin prefix: the bytes after it are the text length
		// and the text the guest draws.
		secret[(v*3)%32] = '0' + byte(v%10)
		secret[(v*7+5)%32] = 'a' + byte((v/10)%26)
	case "count_punct":
		marks := []byte(".?!,; x")
		secret[(v*7)%len(secret)] = marks[v%len(marks)]
		secret[(v*13+5)%len(secret)] = marks[(v/7)%len(marks)]
	default: // interp, sshauth: raw secret bytes
		secret[(v*5)%len(secret)] = byte(v)
		secret[(v*11+3)%len(secret)] ^= byte(v>>2 | 1)
	}
	return secret, pub
}

// classesFor splits a secret into two classes (§10.1); nil for one byte.
func classesFor(secret []byte) []engine.SecretClass {
	n := len(secret)
	if n < 2 {
		return nil
	}
	return []engine.SecretClass{{Name: "a", Off: 0, Len: n / 2}, {Name: "b", Off: n / 2, Len: n - n/2}}
}
