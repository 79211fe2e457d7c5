// Quickstart: a single encrypted Path ORAM as an oblivious block store.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	pathoram "repro"
)

func main() {
	// 4096 blocks of 128 bytes, Z=3 at 50% utilization (the paper's
	// recommended large-ORAM configuration), counter-based randomized
	// encryption, integrity verification on.
	oram, err := pathoram.New(pathoram.Spec{
		Blocks:    4096,
		BlockSize: 128,
		Z:         3,
		Integrity: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree: %d levels, %.1f MB external memory\n",
		oram.LeafLevel()+1, float64(oram.ExternalMemoryBytes())/(1<<20))

	// Write and read back a block. Every operation is one oblivious path
	// access: the memory trace is a uniformly random path regardless of
	// which address is touched.
	secret := bytes.Repeat([]byte("secret!!"), 16)
	if err := oram.Write(1234, secret); err != nil {
		log.Fatal(err)
	}
	got, err := oram.Read(1234)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back %d bytes, match=%v\n", len(got), bytes.Equal(got, secret))

	// Read-modify-write in a single access.
	if err := oram.Update(1234, func(d []byte) { d[0] = 'S' }); err != nil {
		log.Fatal(err)
	}
	got, _ = oram.Read(1234)
	fmt.Printf("after update: %q...\n", got[:8])

	// Hammer one address and scan many: indistinguishable traces, and the
	// background eviction keeps the stash bounded either way.
	for i := 0; i < 500; i++ {
		if err := oram.Write(7, secret); err != nil {
			log.Fatal(err)
		}
	}
	for i := uint64(0); i < 500; i++ {
		if _, err := oram.Read(i % 4096); err != nil {
			log.Fatal(err)
		}
	}
	s := oram.Stats()
	fmt.Printf("accesses: %d real + %d background dummies, stash peak %d blocks\n",
		s.RealAccesses, s.DummyAccesses, s.StashPeak)
}
