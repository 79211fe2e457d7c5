// Designspace: uses the paper's methodology (Section 4.1) to choose a Path
// ORAM configuration for a deployment: sweep Z and utilization with
// background eviction enabled (the fig8 grid of internal/explore, sized to
// the deployment), evaluate Equation 1 with the measured dummy-access
// rates, and print the trade-off.
//
// Run with: go run ./examples/designspace [-blocks N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/internal/explore"
)

func main() {
	blocks := flag.Uint64("blocks", 1<<14, "working-set size in 128-byte blocks")
	flag.Parse()

	cells, err := exp.Sweep(explore.Fig8Grid(*blocks), explore.Options{Ops: 8 * int(*blocks), Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	table, err := exp.Figures["fig8"](cells)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table)

	best := exp.Best(cells)
	if best == nil {
		log.Fatal("no feasible configuration")
	}
	fmt.Printf("recommended: Z=%d at %.0f%% utilization (L=%d)\n",
		best.Spec.Z, 100*best.Utilization(), best.Spec.LeafLevel)
	fmt.Printf("  access overhead %.0fx, dummy rate %.3f per real access\n",
		best.Overhead(), best.DummyRate())
	fmt.Println("\n(the paper's large-ORAM result is Z=3 at ~50%; small ORAMs" +
		" favor Z=2 — Figure 9 — which this sweep reproduces at small -blocks)")
}
