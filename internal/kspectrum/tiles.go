package kspectrum

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
)

// TileCount carries the two occurrence statistics Reptile keeps per tile
// (§2.3): Oc, the total multiplicity in R (both strands), and Og, the number
// of those occurrences in which every base has quality score at least Qc.
type TileCount struct {
	Oc uint32
	Og uint32
}

// TileEntry is one distinct tile and its counts, the record a TileSet
// stores per tile and PrefixRange returns.
type TileEntry struct {
	Tile seq.Kmer
	TileCount
}

// TileSet counts tiles: l-concatenations of two k-mers, i.e. substrings of
// length 2k-l (Definition 2.1 with |t| = 2k-l). Tiles are packed like kmers,
// so 2k-l must not exceed seq.MaxK.
//
// Like SpectrumBuilder it is a sharded parallel engine: tiles are routed by
// their high bits into prefix shards, each a tileCounter behind its own
// lock, and Add fans large chunks out to a worker pool. Counts are the same
// for every (Workers, Shards) choice.
//
// Counting ends with Freeze, which sorts every shard's table in place.
// Lookups (Get, PrefixRange) read the frozen form only — the first one
// freezes a set nobody froze — and Add on a frozen set panics.
type TileSet struct {
	K       int
	Overlap int // l, the kmer overlap inside a tile
	TileLen int // 2k - l
	Qc      byte
	workers int
	// shift maps a tile to its shard (PrefixPartition.Shift over tiles).
	shift  uint
	shards []tileShard

	// frozen is set once Freeze has sorted every shard; freezeMu
	// serializes concurrent first freezes.
	frozen   atomic.Bool
	freezeMu sync.Mutex
}

// tileShard is one stripe of the tile counts, the analogue of countShard.
// The counter is held by value, which saves Get a dependent load.
type tileShard struct {
	m  tileCounter
	mu sync.Mutex
}

// CountTiles scans all reads (both strands) and records tile multiplicities.
// qc is the quality threshold defining the high-quality count Og; reads
// without quality scores contribute to Og unconditionally (the paper's
// Og = Oc fallback). An optional BuildOptions sets the counting workers and
// shards exactly as for NewSpectrumBuilder; omitting it uses all cores.
func CountTiles(reads []seq.Read, k, overlap int, qc byte, opts ...BuildOptions) (*TileSet, error) {
	tileLen := 2*k - overlap
	if k <= 0 || overlap < 0 || overlap >= k {
		return nil, fmt.Errorf("kspectrum: invalid tile geometry k=%d l=%d", k, overlap)
	}
	if tileLen > seq.MaxK {
		return nil, fmt.Errorf("kspectrum: tile length %d exceeds %d packed bases", tileLen, seq.MaxK)
	}
	var o BuildOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	workers, shardBits := o.resolve(tileLen)
	// A shard prefix of at most 2k bits keeps every tile that starts with
	// one kmer in one shard, so PrefixRange reads a single table.
	shardBits = min(shardBits, uint(2*k))
	part := PrefixPartition{K: tileLen, Bits: shardBits}
	ts := &TileSet{
		K: k, Overlap: overlap, TileLen: tileLen, Qc: qc,
		workers: workers,
		shift:   part.Shift(),
		shards:  make([]tileShard, part.Shards()),
	}
	for i := range ts.shards {
		ts.shards[i].m = *newTileCounter()
	}
	ts.Add(reads)
	return ts, nil
}

// Add merges one chunk of reads into the tile counts, enabling the §2.3
// divide-and-merge construction. Like SpectrumBuilder.Add it fans large
// chunks out to the set's workers, and it may be called concurrently.
// Adding to a frozen set panics: its tables are sorted and read-only.
func (ts *TileSet) Add(reads []seq.Read) {
	if ts.frozen.Load() {
		panic("kspectrum: TileSet.Add after Freeze: a frozen tile set is read-only")
	}
	countChunks(reads, ts.workers, func() func([]seq.Read, int) {
		sc := &tileScratch{shards: make([][]tileHit, len(ts.shards))}
		return func(chunk []seq.Read, _ int) { ts.countChunk(chunk, sc) }
	})
}

// tileHit is one tile occurrence and whether it is high quality.
type tileHit struct {
	tile seq.Kmer
	hq   bool
}

// tileScratch is one worker's scratch: the current read's tile
// occurrences, and a chunk's occurrences routed to their shards.
type tileScratch struct {
	read   []tileHit
	shards [][]tileHit
}

// countChunk routes one read chunk's tiles into the worker's per-shard
// buffers (reused across chunks, reset here), then flushes each buffer
// into its counter under the stripe lock. A set with one shard has
// nothing to route: the chunk counts straight into it under its lock.
func (ts *TileSet) countChunk(reads []seq.Read, sc *tileScratch) {
	if len(ts.shards) == 1 {
		shard := &ts.shards[0]
		shard.mu.Lock()
		for _, r := range reads {
			sc.read = ts.appendTiles(sc.read[:0], r.Seq, r.Qual)
			for _, h := range sc.read {
				shard.m.add(h.tile, h.hq)
			}
		}
		shard.mu.Unlock()
		return
	}
	resetBuffers(sc.shards, 2*windowsIn(reads, ts.TileLen))
	for _, r := range reads {
		sc.read = ts.appendTiles(sc.read[:0], r.Seq, r.Qual)
		for _, h := range sc.read {
			s := uint64(h.tile) >> ts.shift
			sc.shards[s] = append(sc.shards[s], h)
		}
	}
	for s := range ts.shards {
		if len(sc.shards[s]) == 0 {
			continue
		}
		shard := &ts.shards[s]
		shard.mu.Lock()
		for _, h := range sc.shards[s] {
			shard.m.add(h.tile, h.hq)
		}
		shard.mu.Unlock()
	}
}

// appendTiles appends to dst every tile of one read's two strands. The
// reverse strand is never materialized: its tiles are the reverse
// complements of the forward tiles, over the same bases and so with the
// same quality verdict, and both are rolled in one pass. A tile is high
// quality when no base in it scores below Qc, tracked as a sliding count
// of low-quality bases over the last TileLen positions. Tiles never span a
// non-ACGT base.
func (ts *TileSet) appendTiles(dst []tileHit, bases, qual []byte) []tileHit {
	n := ts.TileLen
	if len(bases) < n {
		return dst
	}
	top := 2 * uint(n-1)
	var fw, rc seq.Kmer
	valid, low := 0, 0
	for i, ch := range bases {
		if qual != nil {
			if qual[i] < ts.Qc {
				low++
			}
			if i >= n && qual[i-n] < ts.Qc {
				low--
			}
		}
		b, ok := seq.BaseFromChar(ch)
		if !ok {
			valid = 0
			continue
		}
		fw = fw.Append(b, n)
		rc = rc>>2 | seq.Kmer(b.Complement())<<top
		if valid++; valid < n {
			continue
		}
		dst = append(dst, tileHit{fw, low == 0}, tileHit{rc, low == 0})
	}
	return dst
}

// Freeze ends counting: each shard's hash table becomes, in place, its
// tiles in ascending order behind a small bucket table (see
// tileCounter.freeze), shards in parallel on the set's workers. It is
// idempotent and safe to call concurrently; Add after it panics.
func (ts *TileSet) Freeze() {
	if ts.frozen.Load() {
		return
	}
	ts.freezeMu.Lock()
	defer ts.freezeMu.Unlock()
	if ts.frozen.Load() {
		return
	}
	// Buckets take tile bits below the shard prefix but stay inside the
	// leading kmer's 2k bits, so a prefix range never crosses a bucket.
	shardBits := 2*uint(ts.TileLen) - ts.shift
	maxBits := 2*uint(ts.K) - shardBits
	if ts.workers == 1 || len(ts.shards) == 1 {
		// One worker freezes on the caller's goroutine.
		for i := range ts.shards {
			ts.shards[i].m.freeze(ts.shift, maxBits)
		}
		ts.frozen.Store(true)
		return
	}
	next := make(chan int, len(ts.shards))
	for i := range ts.shards {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(ts.workers, len(ts.shards)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ts.shards[i].m.freeze(ts.shift, maxBits)
			}
		}()
	}
	wg.Wait()
	ts.frozen.Store(true)
}

// Reset empties the set for a new count with quality threshold qc,
// frozen or not, keeping every table's capacity: a caller counting many
// similar read batches one after another reuses one set instead of
// growing fresh tables for each. Slices PrefixRange returned before the
// reset alias the reused tables and are invalid after it. Reset must not
// run concurrently with any other use of the set.
func (ts *TileSet) Reset(qc byte) {
	ts.Qc = qc
	for i := range ts.shards {
		ts.shards[i].m.reset()
	}
	ts.frozen.Store(false)
}

// Get returns the counts for a packed tile (zero counts if unseen): a
// binary search within one bucket of the frozen table.
func (ts *TileSet) Get(tile seq.Kmer) TileCount {
	if !ts.frozen.Load() {
		ts.Freeze()
	}
	return ts.shards[uint64(tile)>>ts.shift].m.get(tile)
}

// PrefixRange returns every tile whose leading kmer is ka, in ascending
// tile order — so, for a fixed ka, in ascending order of the tiles'
// second kmers. The slice aliases the frozen table and must not be
// modified.
//
//repro:noalloc
func (ts *TileSet) PrefixRange(ka seq.Kmer) []TileEntry {
	if !ts.frozen.Load() {
		ts.Freeze()
	}
	tail := 2 * uint(ts.K-ts.Overlap)
	lo := ka << tail
	return ts.shards[uint64(lo)>>ts.shift].m.span(lo, lo|(1<<tail-1))
}

// Size returns the number of distinct tiles.
func (ts *TileSet) Size() int {
	n := 0
	for i := range ts.shards {
		n += ts.shards[i].m.Len()
	}
	return n
}

// forEach visits every distinct tile, shard by shard in table order.
func (ts *TileSet) forEach(fn func(tile seq.Kmer, c TileCount)) {
	for i := range ts.shards {
		ts.shards[i].m.forEach(fn)
	}
}

// PackTile concatenates two kmers with the configured overlap into a packed
// tile. The caller guarantees the overlapping regions agree (Definition 2.1);
// the suffix of a wins in the packed value.
func (ts *TileSet) PackTile(a, b seq.Kmer) seq.Kmer {
	// tile = a || (b without its first Overlap bases)
	tailLen := ts.K - ts.Overlap
	tailMask := seq.Kmer(1)<<(2*uint(tailLen)) - 1
	return a<<(2*uint(tailLen)) | b&tailMask
}

// SplitTile recovers the two constituent kmers of a packed tile.
func (ts *TileSet) SplitTile(tile seq.Kmer) (a, b seq.Kmer) {
	tailLen := ts.K - ts.Overlap
	a = tile >> (2 * uint(tailLen))
	kMask := seq.Kmer(1)<<(2*uint(ts.K)) - 1
	b = tile & kMask
	return a, b
}

// OgHistogram tallies distinct tiles by Og count, binning counts above
// maxBin into the last bin.
func (ts *TileSet) OgHistogram(maxBin int) []int {
	h := make([]int, maxBin+1)
	ts.forEach(func(_ seq.Kmer, tc TileCount) {
		idx := int(tc.Og)
		if idx > maxBin {
			idx = maxBin
		}
		h[idx]++
	})
	return h
}

// OgQuantile returns the smallest count x such that at least `fraction` of
// distinct tiles have Og <= x — the empirical-histogram parameter selection
// Reptile uses for Cg and Cm (§2.3 "Choosing Parameters").
func (ts *TileSet) OgQuantile(fraction float64) uint32 {
	n := ts.Size()
	if n == 0 {
		return 0
	}
	counts := make([]uint32, 0, n)
	ts.forEach(func(_ seq.Kmer, tc TileCount) {
		counts = append(counts, tc.Og)
	})
	slices.Sort(counts)
	idx := int(fraction * float64(len(counts)))
	if idx >= len(counts) {
		idx = len(counts) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return counts[idx]
}

// QualityQuantile returns the Phred score q such that `fraction` of all
// bases in the read set score below q — the selection rule for Qc.
func QualityQuantile(reads []seq.Read, fraction float64) byte {
	var hist [128]int
	total := 0
	for _, r := range reads {
		for _, q := range r.Qual {
			if q > 127 {
				q = 127
			}
			hist[q]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	target := int(fraction * float64(total))
	acc := 0
	for q := 0; q < len(hist); q++ {
		acc += hist[q]
		if acc >= target {
			return byte(q)
		}
	}
	return 127
}
