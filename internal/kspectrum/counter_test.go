package kspectrum

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/seq"
)

// mapReferenceSpectrum is the retained map-based reference implementation
// the open-addressing Counter replaced: count every clean window (both
// strands when asked) into a Go map, then sort. Determinism tests assert
// the production engine stays byte-identical to it.
func mapReferenceSpectrum(reads []seq.Read, k int, bothStrands bool) *Spectrum {
	m := map[seq.Kmer]uint32{}
	for _, r := range reads {
		ForEachKmer(r.Seq, k, func(km seq.Kmer, _ int) {
			m[km]++
			if bothStrands {
				m[seq.RevComp(km, k)]++
			}
		})
	}
	kmers := make([]seq.Kmer, 0, len(m))
	for km := range m {
		kmers = append(kmers, km)
	}
	sort.Slice(kmers, func(i, j int) bool { return kmers[i] < kmers[j] })
	counts := make([]uint32, len(kmers))
	for i, km := range kmers {
		counts[i] = m[km]
	}
	return &Spectrum{K: k, Kmers: kmers, Counts: counts}
}

// TestCounterVsMapOracle drives random increment/lookup traffic through a
// Counter and a map[seq.Kmer]uint32 side by side, including the zero kmer
// (AAA…A, the value an empty slot must not be confused with) and heavy
// duplication to exercise growth and probing chains.
func TestCounterVsMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCounter(0)
	oracle := map[seq.Kmer]uint32{}
	keys := make([]seq.Kmer, 500)
	for i := range keys {
		keys[i] = seq.Kmer(rng.Uint64() >> uint(rng.Intn(40))) // skewed, includes small values
	}
	keys[0] = 0
	for i := 0; i < 20000; i++ {
		km := keys[rng.Intn(len(keys))]
		delta := uint32(rng.Intn(3)) // 0 must be a no-op
		c.Inc(km, delta)
		if delta > 0 {
			oracle[km] += delta
		}
		if i%97 == 0 {
			probe := keys[rng.Intn(len(keys))]
			if got, want := c.Get(probe), oracle[probe]; got != want {
				t.Fatalf("Get(%v) = %d, oracle %d", probe, got, want)
			}
		}
	}
	distinct := len(oracle)
	if c.Len() != distinct {
		t.Fatalf("Len = %d, oracle %d", c.Len(), distinct)
	}
	kmers, counts := c.AppendSortedInto(nil, nil)
	if len(kmers) != distinct || len(counts) != distinct {
		t.Fatalf("AppendSortedInto returned %d/%d entries, want %d", len(kmers), len(counts), distinct)
	}
	for i := range kmers {
		if i > 0 && kmers[i-1] >= kmers[i] {
			t.Fatalf("entries not strictly sorted at %d: %v >= %v", i, kmers[i-1], kmers[i])
		}
		if counts[i] != oracle[kmers[i]] {
			t.Fatalf("count[%v] = %d, oracle %d", kmers[i], counts[i], oracle[kmers[i]])
		}
	}
}

// TestCounterSaturatesAtMaxUint32 pins the overflow contract: a count may
// never wrap to 0, because a zero count reads as an empty slot and would
// structurally corrupt the probe chains.
func TestCounterSaturatesAtMaxUint32(t *testing.T) {
	c := NewCounter(0)
	km := seq.Kmer(0) // the all-A kmer, the most overflow-prone in practice
	c.Inc(km, ^uint32(0))
	c.Inc(km, 1)
	c.Inc(km, ^uint32(0))
	if got := c.Get(km); got != ^uint32(0) {
		t.Fatalf("Get = %d want MaxUint32", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d want 1", c.Len())
	}
	tc := newTileCounter()
	for i := 0; i < 3; i++ {
		tc.add(km, true)
	}
	tc.recs[mixSlot(tc, km)].Oc = ^uint32(0)
	tc.add(km, false)
	tc.freeze(0, 0)
	if got := tc.get(km); got.Oc != ^uint32(0) {
		t.Fatalf("tile Oc = %d want MaxUint32", got.Oc)
	}
}

// TestCounterTryIncFixedCapacity pins the fixed-capacity contract the
// out-of-core shards rely on: tryInc fills the table to its load threshold
// and then refuses new keys without changing anything (existing keys still
// count), Reset empties it without changing its capacity, and growEmpty
// empties it into double the capacity.
func TestCounterTryIncFixedCapacity(t *testing.T) {
	c := &Counter{}
	c.alloc(512) // threshold 384
	for i := 0; i < 384; i++ {
		if !c.tryInc(seq.Kmer(i), 1) {
			t.Fatalf("tryInc refused key %d below the load threshold", i)
		}
	}
	if c.tryInc(seq.Kmer(384), 1) {
		t.Fatal("tryInc inserted past the load threshold")
	}
	if !c.tryInc(seq.Kmer(7), 2) || c.Get(7) != 3 {
		t.Fatalf("full table must still count present keys: Get(7) = %d", c.Get(7))
	}
	if c.Len() != 384 || c.Get(384) != 0 || c.ResidentBytes() != 512*counterSlotBytes {
		t.Fatalf("refused insert changed the table: len %d, Get(384) %d", c.Len(), c.Get(384))
	}
	c.Reset()
	if c.Len() != 0 || c.Get(7) != 0 || c.ResidentBytes() != 512*counterSlotBytes {
		t.Fatalf("Reset: len %d, Get(7) %d, %d bytes", c.Len(), c.Get(7), c.ResidentBytes())
	}
	if !c.tryInc(seq.Kmer(384), 1) || c.Get(384) != 1 {
		t.Fatal("tryInc after Reset")
	}
	c.growEmpty()
	if c.Len() != 0 || c.Get(384) != 0 || c.ResidentBytes() != 1024*counterSlotBytes {
		t.Fatalf("growEmpty: len %d, Get(384) %d, %d bytes", c.Len(), c.Get(384), c.ResidentBytes())
	}
	for i := 0; i < 768; i++ {
		if !c.tryInc(seq.Kmer(i), 1) {
			t.Fatalf("tryInc after growEmpty refused key %d below the new threshold", i)
		}
	}
}

// mixSlot locates km's slot in a tileCounter (test helper).
func mixSlot(tc *tileCounter, km seq.Kmer) uint64 {
	mask := uint64(len(tc.recs) - 1)
	i := mix(uint64(km)) & mask
	for tc.recs[i].Tile != km || tc.recs[i].Oc == 0 {
		i = (i + 1) & mask
	}
	return i
}

// TestCounterAppendSortedIntoReuse verifies the append contract: existing
// prefixes survive and the counter can extract repeatedly.
func TestCounterAppendSortedIntoReuse(t *testing.T) {
	c := NewCounter(4)
	c.Inc(seq.MustPack("ACGT"), 2)
	c.Inc(seq.MustPack("TTTT"), 1)
	kmers := []seq.Kmer{99}
	counts := []uint32{99}
	kmers, counts = c.AppendSortedInto(kmers, counts)
	if len(kmers) != 3 || kmers[0] != 99 || counts[0] != 99 {
		t.Fatalf("prefix clobbered: %v %v", kmers, counts)
	}
	if kmers[1] != seq.MustPack("ACGT") || counts[1] != 2 {
		t.Fatalf("first entry wrong: %v %v", kmers, counts)
	}
	k2, c2 := c.AppendSortedInto(nil, nil)
	if len(k2) != 2 || c2[1] != 1 {
		t.Fatalf("second extraction wrong: %v %v", k2, c2)
	}
}

// TestCounterSpectrumMatchesMapReference is the tentpole acceptance
// property: spectra built through the open-addressing counter are
// byte-identical to the retained map-based reference for every
// workers × shards × memory-budget combination.
func TestCounterSpectrumMatchesMapReference(t *testing.T) {
	reads := randomReads(t, 2500)
	for _, bothStrands := range []bool{false, true} {
		want := mapReferenceSpectrum(reads, 13, bothStrands)
		for _, workers := range []int{1, 3, 8} {
			for _, shards := range []int{1, 4, 7} {
				got, err := BuildParallel(reads, 13, bothStrands, BuildOptions{Workers: workers, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				spectraEqual(t, want, got, "in-memory vs map reference")
				for _, budget := range []int64{0, 1 << 15} {
					goc, stats, err := BuildOutOfCore(reads, 13, bothStrands, StreamOptions{
						Build:        BuildOptions{Workers: workers, Shards: shards},
						MemoryBudget: budget,
						TempDir:      t.TempDir(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if budget > 0 && stats.SpilledRuns == 0 {
						t.Fatalf("workers=%d shards=%d: tiny budget spilled nothing", workers, shards)
					}
					spectraEqual(t, want, goc, "out-of-core vs map reference")
				}
			}
		}
	}
}

// TestApproxAccumulatorBytes pins the budget math: the estimate must match
// the footprint an actual counter reaches after n inserts.
func TestApproxAccumulatorBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 47, 48, 49, 1000, 5000} {
		c := NewCounter(0)
		for i := 0; i < n; i++ {
			c.Inc(seq.Kmer(rng.Uint64()), 1)
		}
		if c.Len() != n {
			// collisions in the random keys are possible but vanishingly
			// unlikely at these sizes; regenerate if it ever trips
			t.Fatalf("n=%d: inserted %d distinct", n, c.Len())
		}
		if got, want := c.ResidentBytes(), ApproxAccumulatorBytes(n); got != want {
			t.Fatalf("n=%d: ResidentBytes %d, ApproxAccumulatorBytes %d", n, got, want)
		}
	}
	if ApproxAccumulatorBytes(10) != int64(minCounterSlots)*counterSlotBytes {
		t.Fatal("small-n floor wrong")
	}
}
