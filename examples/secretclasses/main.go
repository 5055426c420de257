// Secretclasses: the paper's §10.1 future-work direction — measuring the
// disclosure of *different kinds of secret* independently.
//
// A calendar holds Alice's appointment and Bob's appointment; the busy/free
// grid reveals some of each. Per-class analysis bounds each person's
// exposure separately, and the comparison with the joint bound shows the
// crowding-out effect: both secrets compete for the same 18 grid squares.
//
// The analysis is multi-commodity in the network-flow sense but needs only
// one instrumented execution: the tracker attributes every source edge to
// the secret bytes that fed it, and each class is then a cheap capacity
// view over the one shared graph — other classes' source capacity zeroed,
// its own kept — solved independently. AnalyzeClassSet returns the
// per-class bounds, the joint result, and how many executions it actually
// performed (one, here).
//
// Run with: go run ./examples/secretclasses
package main

import (
	"fmt"
	"log"

	"flowcheck"
	"flowcheck/internal/guest"
	"flowcheck/internal/workload"
)

func main() {
	in := flowcheck.Inputs{
		Secret: workload.CalendarSecret([]workload.Appointment{
			{StartSlot: 20, EndSlot: 24}, // Alice: 10:00-12:00
			{StartSlot: 30, EndSlot: 33}, // Bob:   15:00-16:30
		}),
		Public: workload.CalendarQuery(2, 9, 18),
	}
	prog := guest.Program("calendar")

	classes := []flowcheck.SecretClass{
		{Name: "alice", Off: 1, Len: 2},
		{Name: "bob", Off: 3, Len: 2},
	}
	ca, err := flowcheck.AnalyzeClassSet(prog, in, classes, flowcheck.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meeting grid shown to the requester: %s\n", ca.Joint.Output)
	fmt.Printf("(%d classes measured with %d execution)\n\n", len(ca.Classes), ca.Executions)

	var sum int64
	for _, c := range ca.Classes {
		fmt.Printf("%s's schedule: at most %2d bits revealed\n", c.Class.Name, c.Bits)
		fmt.Printf("  min cut: %s\n", c.Cut)
		sum += c.Bits
	}
	fmt.Printf("both together: at most %2d bits revealed\n", ca.Joint.Bits)
	fmt.Println()
	fmt.Printf("The per-class bounds sum to %d > %d because the two secrets\n", sum, ca.Joint.Bits)
	fmt.Println("share the grid's capacity — the crowding-out effect §10.1")
	fmt.Println("anticipates for multi-commodity extensions. A leakage budget")
	fmt.Println("should charge the joint bound, not the per-class sum.")
}
