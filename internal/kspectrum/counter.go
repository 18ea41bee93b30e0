package kspectrum

import (
	"cmp"
	"slices"

	"repro/internal/seq"
)

// Counter is a purpose-built replacement for map[seq.Kmer]uint32 on the
// spectrum-construction hot path: an open-addressing linear-probing hash
// table with power-of-two capacity and no tombstones (entries are never
// deleted, only the whole table reset). One increment costs a multiply,
// a shift and on average barely more than one cache line, versus the
// generic map's hashing, bucket chasing and per-entry overhead.
//
// A slot is occupied iff its count is non-zero, which is sound because
// increments are always positive; the kmer 0 (AAA…A) therefore needs no
// sentinel. The table grows at 3/4 load by rehashing into double the
// capacity — unless it is used through tryInc, which never grows the table
// and leaves the decision of what to do when full to the caller.
type Counter struct {
	keys []seq.Kmer
	vals []uint32
	n    int // occupied slots
	grow int // occupancy threshold that triggers doubling
}

// counterSlotBytes is the resident cost of one table slot: an 8-byte key
// plus a 4-byte count. Unlike the Go map there are no bucket headers and
// no per-entry pointers, so capacity × counterSlotBytes is the whole
// footprint (modulo the transient old table during a rehash).
const counterSlotBytes = 8 + 4

// minCounterSlots keeps fresh tables small: shards start near-empty and
// most never see more than a few hundred kmers at small scale.
const minCounterSlots = 64

// slotsFor is the single source of the table-sizing rule: the power-of-two
// capacity a counter holding n entries needs (capacity ≥ n/0.75, floored
// at minCounterSlots). NewCounter and ApproxAccumulatorBytes must agree on
// it, or the StreamBuilder's budget math would diverge from the footprint
// tables actually reach.
func slotsFor(n int) int {
	slots := minCounterSlots
	for slots*3 < n*4 {
		slots *= 2
	}
	return slots
}

// NewCounter returns an empty counter sized for about `hint` entries
// (<= 0 picks the minimum capacity).
func NewCounter(hint int) *Counter {
	c := &Counter{}
	c.alloc(slotsFor(hint))
	return c
}

func (c *Counter) alloc(slots int) {
	c.keys = make([]seq.Kmer, slots)
	c.vals = make([]uint32, slots)
	c.grow = slots * 3 / 4
	c.n = 0
}

// mix is the xor-shift/fibonacci finalizer scattering kmer bits across the
// table index. Packed kmers are highly structured (neighboring windows
// share all but two bits), so the raw value must not address the table
// directly.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0x9E3779B97F4A7C15 // 2^64 / φ
	x ^= x >> 29
	return x
}

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return c.n }

// Inc adds delta (> 0) to km's count, inserting it if absent and growing
// the table when the insert would cross the load threshold. Counts
// saturate at MaxUint32 instead of wrapping: a wrap to 0 would read as an
// empty slot and structurally corrupt the table (the map it replaced
// merely wrapped the value), and at ~4 billion occurrences the count has
// long stopped carrying information anyway.
func (c *Counter) Inc(km seq.Kmer, delta uint32) {
	if !c.tryInc(km, delta) {
		c.rehash()
		c.tryInc(km, delta)
	}
}

// tryInc is Inc without growth: when km is absent and inserting it would
// cross the 3/4 load threshold it changes nothing and reports false. A
// delta of 0 is a no-op that reports true.
func (c *Counter) tryInc(km seq.Kmer, delta uint32) bool {
	if delta == 0 {
		return true
	}
	mask := uint64(len(c.keys) - 1)
	i := mix(uint64(km)) & mask
	for {
		if c.vals[i] == 0 {
			if c.n >= c.grow {
				return false
			}
			c.keys[i] = km
			c.vals[i] = delta
			c.n++
			return true
		}
		if c.keys[i] == km {
			if v := c.vals[i]; delta > ^uint32(0)-v {
				c.vals[i] = ^uint32(0)
			} else {
				c.vals[i] = v + delta
			}
			return true
		}
		i = (i + 1) & mask
	}
}

// Reset empties the table in place, keeping its capacity.
func (c *Counter) Reset() {
	clear(c.keys)
	clear(c.vals)
	c.n = 0
}

// growEmpty empties the table and doubles its capacity without a rehash.
// The old slots are dropped before the new ones are allocated, so unlike
// a rehash it never holds both tables at once.
func (c *Counter) growEmpty() {
	slots := 2 * len(c.keys)
	c.keys, c.vals = nil, nil
	c.alloc(slots)
}

// Get returns km's count (0 if absent).
func (c *Counter) Get(km seq.Kmer) uint32 {
	mask := uint64(len(c.keys) - 1)
	i := mix(uint64(km)) & mask
	for {
		if c.vals[i] == 0 {
			return 0
		}
		if c.keys[i] == km {
			return c.vals[i]
		}
		i = (i + 1) & mask
	}
}

func (c *Counter) rehash() {
	oldK, oldV := c.keys, c.vals
	c.alloc(2 * len(oldK))
	mask := uint64(len(c.keys) - 1)
	for j, v := range oldV {
		if v == 0 {
			continue
		}
		i := mix(uint64(oldK[j])) & mask
		for c.vals[i] != 0 {
			i = (i + 1) & mask
		}
		c.keys[i] = oldK[j]
		c.vals[i] = v
		c.n++
	}
}

// AppendSortedInto appends the counter's entries in ascending key order to
// the two parallel slices and returns them — the extraction step of the
// sharded Build, replacing the map-iterate-then-sort path. Keys are sorted
// alone and the counts re-fetched by O(1) probe: measurably faster than
// dragging the counts through the sort in lockstep, which needs a paired
// sort.Interface and pays a dispatched double swap per exchange (~1.6×
// slower end-to-end on the serial spectrum build). The keys go through the
// generic slices.Sort, whose comparisons compile to plain integer compares
// (profiled: about a third less sort time than sort.Slice's closure calls).
func (c *Counter) AppendSortedInto(kmers []seq.Kmer, counts []uint32) ([]seq.Kmer, []uint32) {
	kstart := len(kmers)
	for i, v := range c.vals {
		if v != 0 {
			kmers = append(kmers, c.keys[i])
		}
	}
	added := kmers[kstart:]
	slices.Sort(added)
	for _, km := range added {
		counts = append(counts, c.Get(km))
	}
	return kmers, counts
}

// ResidentBytes reports the table's actual memory footprint — the real
// number the StreamBuilder budgets against, replacing the former
// per-map-entry estimate.
func (c *Counter) ResidentBytes() int64 {
	return int64(len(c.keys)) * counterSlotBytes
}

// ApproxAccumulatorBytes is the resident footprint a Counter holding n
// entries reaches: the next power-of-two capacity ≥ n/0.75 at
// counterSlotBytes per slot. Benchmarks and budget math use it to relate
// distinct-kmer counts to accumulator memory.
func ApproxAccumulatorBytes(n int) int64 {
	return int64(slotsFor(n)) * counterSlotBytes
}

// tileCounter is the paired-uint32-value variant of Counter backing
// TileSet: per tile it tracks Oc (total occurrences) and Og (high-quality
// occurrences) in one TileEntry record per slot. A slot is occupied iff
// Oc is non-zero — every insertion increments Oc, so the invariant holds.
//
// It lives in two states. While counting it is an open-addressing hash
// table written through add. freeze then turns it, in place, into the
// read-only form every lookup uses: the occupied records compacted to
// the front of the same array and sorted by tile, plus a small bucket
// table over the tiles' high bits.
type tileCounter struct {
	recs []TileEntry
	n    int
	grow int

	// Frozen state: recs holds exactly the n sorted records, and bucket
	// b — the bmask bits above bshift — spans recs[off[b]:off[b+1]].
	bshift uint
	bmask  uint64
	off    []uint32
}

func newTileCounter() *tileCounter {
	tc := &tileCounter{}
	tc.alloc(minCounterSlots)
	return tc
}

func (tc *tileCounter) alloc(slots int) {
	tc.recs = make([]TileEntry, slots)
	tc.grow = slots * 3 / 4
	tc.n = 0
}

// Len returns the number of distinct tiles.
func (tc *tileCounter) Len() int { return tc.n }

// reset empties the table back to its counting form at its full
// capacity. A frozen table cut recs down to its n records; the array
// behind them still has the power-of-two length the hash needs.
func (tc *tileCounter) reset() {
	tc.recs = tc.recs[:cap(tc.recs)]
	clear(tc.recs)
	tc.grow = len(tc.recs) * 3 / 4
	tc.n = 0
}

// add records one occurrence of tile, high-quality when hq. Like
// Counter.Inc, counts saturate at MaxUint32 — Oc wrapping to 0 would free
// an occupied slot.
func (tc *tileCounter) add(tile seq.Kmer, hq bool) {
	mask := uint64(len(tc.recs) - 1)
	i := mix(uint64(tile)) & mask
	for {
		r := &tc.recs[i]
		if r.Oc == 0 {
			if tc.n >= tc.grow {
				tc.rehash()
				tc.add(tile, hq)
				return
			}
			r.Tile, r.Oc = tile, 1
			if hq {
				r.Og = 1
			}
			tc.n++
			return
		}
		if r.Tile == tile {
			if r.Oc != ^uint32(0) {
				r.Oc++
			}
			if hq && r.Og != ^uint32(0) {
				r.Og++
			}
			return
		}
		i = (i + 1) & mask
	}
}

func (tc *tileCounter) rehash() {
	old := tc.recs
	tc.alloc(2 * len(old))
	mask := uint64(len(tc.recs) - 1)
	for _, r := range old {
		if r.Oc == 0 {
			continue
		}
		i := mix(uint64(r.Tile)) & mask
		for tc.recs[i].Oc != 0 {
			i = (i + 1) & mask
		}
		tc.recs[i] = r
		tc.n++
	}
}

// freeze converts the table to its sorted read-only form without a second
// copy of the records: the occupied slots slide to the front, the slice
// is cut to them, and slices.SortFunc orders them in place. A bucket is
// then selected by the up to maxBits tile bits just below the top
// 2·TileLen−low bits the table's tiles all share (its shard prefix).
// Only the bucket table is allocated, and a table refilled after reset
// reuses its previous one. It runs once per count, under TileSet.Freeze.
func (tc *tileCounter) freeze(low, maxBits uint) {
	n := 0
	for _, r := range tc.recs {
		if r.Oc != 0 {
			tc.recs[n] = r
			n++
		}
	}
	tc.recs = tc.recs[:n]
	slices.SortFunc(tc.recs, func(a, b TileEntry) int { return cmp.Compare(a.Tile, b.Tile) })
	// About one bucket per four tiles, as for the neighbor replicas.
	bits := uint(0)
	for bits < maxBits && 4<<(bits+1) <= n {
		bits++
	}
	tc.bshift = low - bits
	tc.bmask = 1<<bits - 1
	if nb := 1<<bits + 1; cap(tc.off) >= nb {
		// A reset table keeps its bucket table for the next freeze.
		tc.off = tc.off[:nb]
		clear(tc.off)
	} else {
		tc.off = make([]uint32, nb)
	}
	for _, r := range tc.recs {
		tc.off[tc.bucketOf(r.Tile)+1]++
	}
	for b := 1; b < len(tc.off); b++ {
		tc.off[b] += tc.off[b-1]
	}
}

func (tc *tileCounter) bucketOf(tile seq.Kmer) uint64 {
	return uint64(tile) >> tc.bshift & tc.bmask
}

// lowerBound returns the first index in recs whose tile is >= tile
// (len(recs) when none is).
func lowerBound(recs []TileEntry, tile seq.Kmer) int {
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if recs[mid].Tile < tile {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// get returns the tile's counts (zero counts if unseen) from the frozen
// table: a binary search within the tile's bucket.
func (tc *tileCounter) get(tile seq.Kmer) TileCount {
	b := tc.bucketOf(tile)
	recs := tc.recs[tc.off[b]:tc.off[b+1]]
	if i := lowerBound(recs, tile); i < len(recs) && recs[i].Tile == tile {
		return recs[i].TileCount
	}
	return TileCount{}
}

// span returns the frozen records with lo <= tile <= hi. lo and hi must
// share a bucket.
func (tc *tileCounter) span(lo, hi seq.Kmer) []TileEntry {
	b := tc.bucketOf(lo)
	recs := tc.recs[tc.off[b]:tc.off[b+1]]
	recs = recs[lowerBound(recs, lo):]
	end := 0
	for end < len(recs) && recs[end].Tile <= hi {
		end++
	}
	return recs[:end]
}

// forEach visits every distinct tile, in table order while counting and
// in ascending order once frozen.
func (tc *tileCounter) forEach(fn func(tile seq.Kmer, c TileCount)) {
	for _, r := range tc.recs {
		if r.Oc != 0 {
			fn(r.Tile, r.TileCount)
		}
	}
}
