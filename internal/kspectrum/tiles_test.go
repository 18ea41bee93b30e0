package kspectrum

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/seq"
)

func TestCountTilesGeometry(t *testing.T) {
	if _, err := CountTiles(nil, 4, 4, 0); err == nil {
		t.Error("expected error for overlap >= k")
	}
	if _, err := CountTiles(nil, 20, 0, 0); err == nil {
		t.Error("expected error for tile length > 32")
	}
	ts, err := CountTiles(nil, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.TileLen != 10 {
		t.Errorf("TileLen %d want 10", ts.TileLen)
	}
}

func TestCountTilesBothStrands(t *testing.T) {
	reads := mkReads("ACGTACGT")
	ts, err := CountTiles(reads, 3, 0, 0) // tile length 6
	if err != nil {
		t.Fatal(err)
	}
	// Forward windows: ACGTAC, CGTACG, GTACGT. RC read = ACGTACGT (palindrome),
	// so every tile counts twice.
	if got := ts.Get(seq.MustPack("ACGTAC")).Oc; got != 2 {
		t.Errorf("Oc = %d want 2", got)
	}
}

func TestCountTilesQuality(t *testing.T) {
	r := seq.Read{
		ID:   "q",
		Seq:  []byte("ACGTACG"),
		Qual: []byte{40, 40, 40, 40, 40, 40, 5},
	}
	ts, err := CountTiles([]seq.Read{r}, 3, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	first := ts.Get(seq.MustPack("ACGTAC"))
	if first.Oc != 1 || first.Og != 1 {
		t.Errorf("high-quality tile counts = %+v", first)
	}
	// CGTACG is its own reverse complement, so it occurs once on each
	// strand; both occurrences overlap the q=5 base, so Og stays 0.
	second := ts.Get(seq.MustPack("CGTACG"))
	if second.Oc != 2 || second.Og != 0 {
		t.Errorf("low-quality tile counts = %+v (last base q=5)", second)
	}
}

func TestCountTilesNilQualityCountsAsHigh(t *testing.T) {
	ts, _ := CountTiles(mkReads("ACGTAC"), 3, 0, 40)
	tc := ts.Get(seq.MustPack("ACGTAC"))
	if tc.Og != tc.Oc {
		t.Errorf("nil quality should give Og=Oc, got %+v", tc)
	}
}

func TestPackSplitTile(t *testing.T) {
	ts, _ := CountTiles(nil, 4, 1, 0)
	a := seq.MustPack("ACGT")
	b := seq.MustPack("TGCA") // overlap 1: tile = ACGT + GCA = ACGTGCA
	tile := ts.PackTile(a, b)
	if got := string(tile.Unpack(ts.TileLen)); got != "ACGTGCA" {
		t.Errorf("PackTile = %q want ACGTGCA", got)
	}
	ga, gb := ts.SplitTile(tile)
	if ga != a {
		t.Errorf("SplitTile a = %v want %v", ga, a)
	}
	if got := string(gb.Unpack(4)); got != "TGCA" {
		t.Errorf("SplitTile b = %q want TGCA", got)
	}
}

func TestPackTileZeroOverlap(t *testing.T) {
	ts, _ := CountTiles(nil, 3, 0, 0)
	tile := ts.PackTile(seq.MustPack("ACG"), seq.MustPack("TTT"))
	if got := string(tile.Unpack(6)); got != "ACGTTT" {
		t.Errorf("PackTile = %q", got)
	}
	a, b := ts.SplitTile(tile)
	if string(a.Unpack(3)) != "ACG" || string(b.Unpack(3)) != "TTT" {
		t.Error("SplitTile round trip failed")
	}
}

func TestOgQuantile(t *testing.T) {
	reads := mkReads("AAAAAA", "AAAAAA", "AAAAAA", "CCCCCC")
	ts, _ := CountTiles(reads, 3, 0, 0)
	// Tiles: AAAAAA (Og 3 fwd + 3 rc? rc of AAAAAA is TTTTTT) ->
	// AAAAAA:3, TTTTTT:3, CCCCCC:1, GGGGGG:1.
	if ts.Size() != 4 {
		t.Fatalf("tile count %d want 4", ts.Size())
	}
	if q := ts.OgQuantile(0.4); q != 1 {
		t.Errorf("OgQuantile(0.4) = %d want 1", q)
	}
	if q := ts.OgQuantile(0.99); q != 3 {
		t.Errorf("OgQuantile(0.99) = %d want 3", q)
	}
}

func TestQualityQuantile(t *testing.T) {
	reads := []seq.Read{
		{Seq: []byte("AAAA"), Qual: []byte{10, 20, 30, 40}},
	}
	if q := QualityQuantile(reads, 0.5); q != 20 {
		t.Errorf("QualityQuantile(0.5) = %d want 20", q)
	}
	if q := QualityQuantile(nil, 0.5); q != 0 {
		t.Errorf("empty QualityQuantile = %d want 0", q)
	}
}

// highQualityScan is the per-tile quality test TileSet used before its
// sliding window: rescan the tile's qualities for one below qc. It is the
// oracle for the window.
func highQualityScan(qual []byte, pos, tileLen int, qc byte) bool {
	if qual == nil {
		return true
	}
	for i := pos; i < pos+tileLen; i++ {
		if qual[i] < qc {
			return false
		}
	}
	return true
}

// tileOracle counts tiles serially into a map, the way TileSet counted
// before it was sharded: both strands materialized, the reverse strand
// with reversed qualities, and a quality rescan per tile.
func tileOracle(reads []seq.Read, tileLen int, qc byte) map[seq.Kmer]TileCount {
	ref := map[seq.Kmer]TileCount{}
	addStrand := func(bases, qual []byte) {
		ForEachKmer(bases, tileLen, func(tile seq.Kmer, pos int) {
			tc := ref[tile]
			tc.Oc++
			if highQualityScan(qual, pos, tileLen, qc) {
				tc.Og++
			}
			ref[tile] = tc
		})
	}
	for _, r := range reads {
		addStrand(r.Seq, r.Qual)
		var rcQual []byte
		if r.Qual != nil {
			rcQual = slices.Clone(r.Qual)
			slices.Reverse(rcQual)
		}
		addStrand(seq.ReverseComplement(r.Seq), rcQual)
	}
	return ref
}

// mixedQualityReads returns simulated reads reworked to exercise every
// branch of tile counting: every fifth read has no qualities, the rest
// score high except for scattered low bases, and every third read carries
// an N that breaks its tiles.
func mixedQualityReads(t *testing.T, n int) []seq.Read {
	reads := randomReads(t, n)
	rng := rand.New(rand.NewSource(17))
	for i := range reads {
		r := &reads[i]
		if i%5 == 0 {
			r.Qual = nil
		} else {
			r.Qual = make([]byte, len(r.Seq))
			for j := range r.Qual {
				if rng.Intn(12) == 0 {
					r.Qual[j] = byte(2 + rng.Intn(20))
				} else {
					r.Qual[j] = byte(30 + rng.Intn(11))
				}
			}
		}
		if i%3 == 0 {
			r.Seq[rng.Intn(len(r.Seq))] = 'N'
		}
	}
	return reads
}

// TestTileSetMatchesMapReference is the determinism property of the
// sharded tile engine: for workers ∈ {1, 2, 8}, fed whole, in chunks
// large enough for the worker pool, or from concurrent Adds, the counts,
// the Og histogram and the Og quantiles equal the serial map oracle.
// Reptile's Cg/Cm are a function of that histogram alone.
func TestTileSetMatchesMapReference(t *testing.T) {
	reads := mixedQualityReads(t, 3000)
	const k, overlap = 8, 3
	const qc = 25
	ref := tileOracle(reads, 2*k-overlap, qc)
	wantHist := make([]int, 256)
	var ogs []uint32
	for _, tc := range ref {
		wantHist[min(int(tc.Og), 255)]++
		ogs = append(ogs, tc.Og)
	}
	slices.Sort(ogs)
	if wantHist[0] == 0 || wantHist[1] == 0 {
		t.Fatalf("reads exercise too few low-quality tiles: histogram head %v", wantHist[:4])
	}

	feeds := map[string]func(ts *TileSet){
		"whole": func(ts *TileSet) { ts.Add(reads) },
		"chunked": func(ts *TileSet) {
			for lo := 0; lo < len(reads); lo += 1100 {
				ts.Add(reads[lo:min(lo+1100, len(reads))])
			}
		},
		"concurrent": func(ts *TileSet) {
			var wg sync.WaitGroup
			for lo := 0; lo < len(reads); lo += 700 {
				wg.Add(1)
				go func(part []seq.Read) {
					defer wg.Done()
					ts.Add(part)
				}(reads[lo:min(lo+700, len(reads))])
			}
			wg.Wait()
		},
	}
	for _, workers := range []int{1, 2, 8} {
		for name, feed := range feeds {
			ts, err := CountTiles(nil, k, overlap, qc, BuildOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			feed(ts)
			if ts.Size() != len(ref) {
				t.Fatalf("workers=%d %s: size %d, oracle %d", workers, name, ts.Size(), len(ref))
			}
			for tile, want := range ref {
				if got := ts.Get(tile); got != want {
					t.Fatalf("workers=%d %s: tile %v: got %+v want %+v", workers, name, tile, got, want)
				}
			}
			if got := ts.OgHistogram(255); !slices.Equal(got, wantHist) {
				t.Fatalf("workers=%d %s: OgHistogram differs from the oracle", workers, name)
			}
			for _, f := range []float64{0.5, 0.9, 0.99} {
				want := ogs[min(int(f*float64(len(ogs))), len(ogs)-1)]
				if got := ts.OgQuantile(f); got != want {
					t.Fatalf("workers=%d %s: OgQuantile(%v) = %d want %d", workers, name, f, got, want)
				}
			}
		}
	}
}

// TestTileSetFreezeContract: freezing changes the table's form, never its
// content. Size, the Og histogram and every tile's counts equal the
// counting table's before the freeze; unseen tiles answer zero; a second
// Freeze changes nothing; and PrefixRange lists exactly the tiles with
// the given leading kmer, in ascending order.
func TestTileSetFreezeContract(t *testing.T) {
	reads := mixedQualityReads(t, 2000)
	const k, overlap = 8, 3
	for _, workers := range []int{1, 2} {
		ts, err := CountTiles(reads, k, overlap, 25, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		size, hist := ts.Size(), ts.OgHistogram(255)
		before := map[seq.Kmer]TileCount{}
		ts.forEach(func(tile seq.Kmer, c TileCount) { before[tile] = c })

		ts.Freeze()
		first := make([]*TileEntry, len(ts.shards))
		for i := range ts.shards {
			if recs := ts.shards[i].m.recs; len(recs) > 0 {
				first[i] = &recs[0]
			}
		}
		ts.Freeze()
		for i := range ts.shards {
			if recs := ts.shards[i].m.recs; len(recs) > 0 && &recs[0] != first[i] {
				t.Fatalf("workers=%d: a second Freeze moved shard %d's records", workers, i)
			}
		}

		if ts.Size() != size || !slices.Equal(ts.OgHistogram(255), hist) {
			t.Fatalf("workers=%d: Size or OgHistogram changed across Freeze", workers)
		}
		prefixes := map[seq.Kmer][]seq.Kmer{}
		tail := 2 * uint(k-overlap)
		for tile, want := range before {
			if got := ts.Get(tile); got != want {
				t.Fatalf("workers=%d: Get(%v) = %+v after Freeze, %+v before", workers, tile, got, want)
			}
			prefixes[tile>>tail] = append(prefixes[tile>>tail], tile)
		}
		rng := rand.New(rand.NewSource(5))
		mask := uint64(1)<<(2*uint(ts.TileLen)) - 1
		for i := 0; i < 2000; i++ {
			tile := seq.Kmer(rng.Uint64() & mask)
			if _, seen := before[tile]; !seen && ts.Get(tile) != (TileCount{}) {
				t.Fatalf("workers=%d: unseen tile %v has counts %+v", workers, tile, ts.Get(tile))
			}
			if ka := tile >> tail; len(prefixes[ka]) == 0 && len(ts.PrefixRange(ka)) != 0 {
				t.Fatalf("workers=%d: PrefixRange(%v) lists tiles nobody counted", workers, ka)
			}
		}
		for ka, tiles := range prefixes {
			slices.Sort(tiles)
			got := ts.PrefixRange(ka)
			if len(got) != len(tiles) {
				t.Fatalf("workers=%d: PrefixRange(%v) has %d tiles, want %d", workers, ka, len(got), len(tiles))
			}
			for i, e := range got {
				if e.Tile != tiles[i] || e.TileCount != before[tiles[i]] {
					t.Fatalf("workers=%d: PrefixRange(%v)[%d] = %+v, want %v %+v", workers, ka, i, e, tiles[i], before[tiles[i]])
				}
			}
		}
	}
}

// TestTileSetLookupFreezes: a set counted but never frozen freezes on its
// first lookup, so Get and PrefixRange have one (frozen) path.
func TestTileSetLookupFreezes(t *testing.T) {
	ts, err := CountTiles(mkReads("ACGTACGGT"), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Get(seq.MustPack("ACGTAC")).Oc != 1 || !ts.frozen.Load() {
		t.Fatal("Get on an unfrozen set did not freeze it and answer")
	}
	if got := ts.PrefixRange(seq.MustPack("CGT")); len(got) != 1 || got[0].Tile != seq.MustPack("CGTACG") {
		t.Fatalf("PrefixRange(CGT) = %+v", got)
	}
}

// TestTileSetConcurrentFirstLookup: lookups racing on a set nobody froze
// must freeze it exactly once and all answer from the frozen table. Run
// under -race.
func TestTileSetConcurrentFirstLookup(t *testing.T) {
	reads := mixedQualityReads(t, 1000)
	ref := tileOracle(reads, 2*8-3, 25)
	ts, err := CountTiles(reads, 8, 3, 25, BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for tile, want := range ref {
				if g%2 == 1 {
					if len(ts.PrefixRange(tile>>(2*5))) == 0 {
						t.Errorf("PrefixRange misses the prefix of counted tile %v", tile)
						return
					}
					continue
				}
				if got := ts.Get(tile); got != want {
					t.Errorf("Get(%v) = %+v want %+v", tile, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTileSetAddAfterFreezePanics: a frozen table is sorted and read-only,
// so feeding it more reads must fail loudly, not corrupt it.
func TestTileSetAddAfterFreezePanics(t *testing.T) {
	ts, err := CountTiles(mkReads("ACGTACGGT"), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts.Freeze()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Add after Freeze") {
			t.Fatalf("Add after Freeze recovered %q, want a panic naming the misuse", msg)
		}
	}()
	ts.Add(mkReads("TTTTTTTT"))
}

// TestTileSetFreezeAllocatesOnlyBuckets: freezing sorts the counting
// table's own records in place. The only heap it takes is the bucket
// tables, rounded up to the allocator's size classes, and a few words of
// worker bookkeeping — far below one copy of the records, which would
// cost 16 bytes a tile.
func TestTileSetFreezeAllocatesOnlyBuckets(t *testing.T) {
	reads := randomReads(t, 20000)
	for _, workers := range []int{1, 2} {
		ts, err := CountTiles(reads, 10, 0, 0, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ts.Freeze()
		runtime.ReadMemStats(&after)
		var buckets uint64
		for i := range ts.shards {
			buckets += uint64(len(ts.shards[i].m.off)) * 4
		}
		const slack = 16 << 10
		allocated := after.TotalAlloc - before.TotalAlloc
		if allocated > buckets+buckets/4+slack {
			t.Fatalf("workers=%d: Freeze allocated %d bytes; bucket tables are %d", workers, allocated, buckets)
		}
		if records := uint64(ts.Size()) * 16; buckets*8 > records {
			t.Fatalf("workers=%d: bucket tables of %d bytes for %d bytes of records", workers, buckets, records)
		}
	}
}

// TestTileSetResetReuse: a reset set, frozen or not, counts the next
// batch exactly as a fresh set would — same Size, Og histogram, Get and
// PrefixRange answers — and a serial set refilled with a batch of the
// same size grows no table and freezes into its old bucket table.
func TestTileSetResetReuse(t *testing.T) {
	first, second := mixedQualityReads(t, 3000), randomReads(t, 1500)
	const k, overlap = 8, 3
	for _, workers := range []int{1, 2} {
		for _, frozen := range []bool{true, false} {
			ts, err := CountTiles(first, k, overlap, 25, BuildOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if frozen {
				ts.Freeze()
			}
			ts.Reset(30)
			ts.Add(second)
			ts.Freeze()
			want, err := CountTiles(second, k, overlap, 30, BuildOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want.Freeze()
			if ts.Qc != 30 || ts.Size() != want.Size() || !slices.Equal(ts.OgHistogram(255), want.OgHistogram(255)) {
				t.Fatalf("workers=%d frozen=%v: the reset set counted Size %d, fresh %d", workers, frozen, ts.Size(), want.Size())
			}
			tail := 2 * uint(k-overlap)
			want.forEach(func(tile seq.Kmer, c TileCount) {
				if got := ts.Get(tile); got != c {
					t.Fatalf("workers=%d frozen=%v: Get(%v) = %+v, fresh %+v", workers, frozen, tile, got, c)
				}
				if !slices.Equal(ts.PrefixRange(tile>>tail), want.PrefixRange(tile>>tail)) {
					t.Fatalf("workers=%d frozen=%v: PrefixRange(%v) differs from a fresh set's", workers, frozen, tile>>tail)
				}
			})
		}
	}

	ts, err := CountTiles(second, k, overlap, 25, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts.Freeze()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ts.Reset(25)
	ts.Add(second)
	ts.Freeze()
	runtime.ReadMemStats(&after)
	// Add's per-call scratch is a few words and one read's tiles; the
	// tables alone are 16 bytes a slot.
	const slack = 8 << 10
	if allocated, table := after.TotalAlloc-before.TotalAlloc, uint64(ts.Size())*16; allocated > slack || table < 4*slack {
		t.Errorf("Reset, Add and Freeze of a same-size batch allocated %d bytes; its table holds %d", allocated, table)
	}
}
