// Secure processor: a hierarchical Path ORAM (recursive position maps,
// Section 2.3 of the paper) used exactly as a secure processor's memory
// controller would — through the exclusive Load/Store interface of Section
// 3.3.1, with super blocks prefetching spatially adjacent cache lines
// (Section 3.2).
//
// A toy "last-level cache" holds checked-out lines; on eviction, lines
// return to the ORAM stash without any path access.
//
// Run with: go run ./examples/secureprocessor
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	pathoram "repro"
)

const (
	lines     = 1 << 13 // 8192 cache lines of 128B = 1 MB of protected memory
	lineBytes = 128
	cacheCap  = 256 // toy LLC capacity in lines
)

// llc is a trivial FIFO "cache" of checked-out lines.
type llc struct {
	data  map[uint64][]byte
	order []uint64
}

func main() {
	mem, err := pathoram.New(pathoram.Spec{
		PosMap:          pathoram.PosMapRecursive,
		Blocks:          lines,
		BlockSize:       lineBytes,
		Z:               4, // DZ4Pb32+SB: the paper's best Figure 12 configuration
		PosZ:            3,
		PosBlockSize:    32,
		SuperBlockSize:  2,
		OnChipPosMapMax: 2 << 10,
		Encryption:      pathoram.EncryptCounter,
		Integrity:       true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hierarchy: %d ORAMs, on-chip position map %d bytes\n",
		mem.NumORAMs(), mem.OnChipPositionMapBytes())
	for i, l := range mem.Layout() {
		fmt.Printf("  ORAM%d: L=%d Z=%d block=%dB holding %d blocks\n",
			i+1, l.LeafLevel, l.Z, l.BlockBytes, l.Blocks)
	}

	cache := &llc{data: map[uint64][]byte{}}

	// The "program": pointer-chase a linked list that we first build in
	// oblivious memory. Every line holds the index of the next line.
	load := func(addr uint64) []byte {
		if d, ok := cache.data[addr]; ok {
			return d
		}
		d, _, group, err := mem.Load(addr)
		if err != nil {
			log.Fatal(err)
		}
		cache.insert(addr, d, mem)
		for _, g := range group { // super-block prefetch
			cache.insert(g.Addr, g.Data, mem)
		}
		return d
	}

	// Build: line i points to (i*2654435761 + 1) mod lines (a scrambled
	// walk), written through the inclusive interface.
	for i := uint64(0); i < lines; i++ {
		buf := make([]byte, lineBytes)
		binary.LittleEndian.PutUint64(buf, (i*2654435761+1)%lines)
		if err := mem.Write(i, buf); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("linked list written through the ORAM")

	// Chase 4000 pointers through the exclusive interface.
	ptr := uint64(0)
	for i := 0; i < 4000; i++ {
		ptr = binary.LittleEndian.Uint64(load(ptr))
	}
	fmt.Printf("walk finished at line %d; cache holds %d lines\n", ptr, len(cache.data))

	for lvl, s := range mem.LevelStats() {
		fmt.Printf("  ORAM%d: %d real accesses, %d dummies, stash peak %d\n",
			lvl+1, s.RealAccesses, s.DummyAccesses, s.StashPeak)
	}
	fmt.Printf("background-eviction rounds: %d (%.3f per access)\n",
		mem.DummyRounds(), mem.DummyPerReal())
}

func (c *llc) insert(addr uint64, d []byte, mem *pathoram.ORAM) {
	if _, ok := c.data[addr]; ok {
		return
	}
	c.data[addr] = d
	c.order = append(c.order, addr)
	// Evict FIFO: the line goes back into the ORAM stash — no path access
	// (Section 3.3.1).
	for len(c.order) > cacheCap {
		victim := c.order[0]
		c.order = c.order[1:]
		if d, ok := c.data[victim]; ok {
			delete(c.data, victim)
			if err := mem.Store(victim, d); err != nil {
				log.Fatal(err)
			}
		}
	}
}
