// Package cache implements the host cache hierarchy: set-associative
// write-back caches with LRU replacement and MSHR-limited non-blocking
// misses, composed into per-core L1/L2 levels under a shared LLC with a
// stride prefetcher (Table II configuration).
//
// The hierarchy is a latency/filter model: lookups resolve immediately
// with a hit latency, LLC misses are forwarded to a memory backend and
// complete through callbacks. Cache levels operate in CPU cycles; the
// backend operates in DRAM cycles and reports completion through the
// clock-converting callback installed by the hierarchy.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes one cache level.
type Config struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	LatencyCPU int64 // hit latency in CPU cycles
	MSHRs      int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive size field in %+v", c)
	}
	if c.SizeBytes%(c.Ways*c.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible into %d ways of %dB blocks",
			c.SizeBytes, c.Ways, c.BlockBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	return nil
}

// line is one cache line's tag state.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch counter
}

// Cache is a single set-associative level. Lines live in one flat
// array (set-major) — the per-access way scan is the hottest loop in
// the whole simulator, and the flat layout spares it an indirection.
type Cache struct {
	cfg   Config
	lines []line
	nsets uint64
	smask uint64 // nsets-1; Validate guarantees nsets is a power of two
	shift uint   // log2(nsets)
	ways  int
	clock uint64

	// One-entry MRU filter: the last block that hit and the line that
	// held it. Streaming cores touch the same 64-byte block for several
	// consecutive accesses, and the repeat hits skip the way scan. The
	// filter is validated against the line's live tag (a replacement
	// that reuses the slot fails the check), and the filtered path
	// performs exactly the state updates the scan would — clock, LRU,
	// dirty, Hits — so behavior is bit-identical.
	lastBlock uint64
	lastTag   uint64
	lastLine  *line

	Hits, Misses int64
}

// New builds a cache level. It panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:   cfg,
		lines: make([]line, cfg.Sets()*cfg.Ways),
		nsets: uint64(cfg.Sets()),
		smask: uint64(cfg.Sets()) - 1,
		shift: uint(bits.TrailingZeros64(uint64(cfg.Sets()))),
		ways:  cfg.Ways,
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(block uint64) (set int, tag uint64) {
	// Sets() is validated to be a power of two, so mask/shift compute
	// exactly block%nsets and block/nsets without two 64-bit divisions
	// on the hottest path in the simulator.
	return int(block & c.smask), block >> c.shift
}

// set returns the set's ways as a subslice of the flat line array.
func (c *Cache) set(set int) []line {
	return c.lines[set*c.ways : set*c.ways+c.ways]
}

// Lookup probes for the block (address divided by block size), updating
// LRU and hit/miss counters. If write, a hit marks the line dirty.
func (c *Cache) Lookup(block uint64, write bool) bool {
	if block == c.lastBlock {
		if l := c.lastLine; l != nil && l.valid && l.tag == c.lastTag {
			c.clock++
			l.lru = c.clock
			if write {
				l.dirty = true
			}
			c.Hits++
			return true
		}
	}
	set, tag := c.index(block)
	c.clock++
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			if write {
				l.dirty = true
			}
			c.Hits++
			c.lastBlock, c.lastTag, c.lastLine = block, tag, l
			return true
		}
	}
	c.Misses++
	return false
}

// unMiss reverses the counter effects of an immediately preceding Lookup
// that missed (one Misses increment and one clock advance; a missed
// Lookup touches no line, so nothing else changed). The hierarchy uses it
// to keep stalled accesses side-effect-free: an Access that returns Stall
// is retried every cycle by a blocked core, and those retry probes must
// leave the caches in exactly the state they found them for the
// fast-forward machinery to skip the retries.
func (c *Cache) unMiss() {
	c.Misses--
	c.clock--
}

// Contains probes without side effects.
func (c *Cache) Contains(block uint64) bool {
	set, tag := c.index(block)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Insert fills the block, returning any evicted dirty victim.
func (c *Cache) Insert(block uint64, dirty bool) (victim uint64, victimDirty bool) {
	set, tag := c.index(block)
	c.clock++
	ways := c.set(set)
	// Reuse an existing or invalid way first.
	vi := 0
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].dirty = ways[i].dirty || dirty
			ways[i].lru = c.clock
			return 0, false
		}
		if !ways[i].valid {
			vi = i
		} else if ways[vi].valid && ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	v := ways[vi]
	ways[vi] = line{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	if v.valid && v.dirty {
		return v.tag*c.nsets + uint64(set), true
	}
	return 0, false
}

// ValidLines counts resident lines (the warm-state fidelity metric the
// sampled-mode fuzz compares between functional and exact warming).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// Invalidate drops the block if present, reporting whether it was dirty.
func (c *Cache) Invalidate(block uint64) (wasDirty bool) {
	set, tag := c.index(block)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			d := l.dirty
			*l = line{}
			return d
		}
	}
	return false
}
