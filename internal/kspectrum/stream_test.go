package kspectrum

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/seq"
)

// TestStreamBuilderByteIdentical is the acceptance property of the
// out-of-core engine: for budget ∈ {unlimited, tiny-forcing-spill} ×
// workers ∈ {1, 8}, the StreamBuilder's spectrum is byte-identical to the
// in-memory SpectrumBuilder's. Run under -race this doubles as the spill
// path's data-race test.
func TestStreamBuilderByteIdentical(t *testing.T) {
	reads := randomReads(t, 3000)
	want, err := BuildParallel(reads, 13, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1 << 15} {
		for _, workers := range []int{1, 8} {
			opts := StreamOptions{
				Build:        BuildOptions{Workers: workers, Shards: 8},
				MemoryBudget: budget,
				TempDir:      t.TempDir(),
			}
			got, stats, err := BuildOutOfCore(reads, 13, true, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := "budget=unlimited"
			if budget > 0 {
				label = "budget=tiny"
				if stats.SpilledRuns == 0 {
					t.Fatalf("workers=%d: tiny budget spilled nothing", workers)
				}
			} else if stats.SpilledRuns != 0 {
				t.Fatalf("workers=%d: unlimited budget spilled %d runs", workers, stats.SpilledRuns)
			}
			spectraEqual(t, want, got, label)
		}
	}
}

// TestStreamBuilderConcurrentAdd drives Add from many goroutines with a
// spill-forcing budget — the full out-of-core ingestion pattern.
func TestStreamBuilderConcurrentAdd(t *testing.T) {
	reads := randomReads(t, 3000)
	want, err := BuildParallel(reads, 11, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStreamBuilder(11, true, StreamOptions{
		Build:        BuildOptions{Workers: 2, Shards: 7},
		MemoryBudget: 1 << 15,
		TempDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 9
	var wg sync.WaitGroup
	size := (len(reads) + chunks - 1) / chunks
	for lo := 0; lo < len(reads); lo += size {
		hi := min(lo+size, len(reads))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			st.Add(reads[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	got, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().SpilledRuns == 0 {
		t.Fatal("tiny budget spilled nothing under concurrent Add")
	}
	spectraEqual(t, want, got, "stream-concurrent-add")
}

// TestStreamBuilderCleanup verifies Build and Close remove the spill
// directory, and that a consumed builder refuses another Build.
func TestStreamBuilderCleanup(t *testing.T) {
	reads := randomReads(t, 1000)
	tmp := t.TempDir()
	st, err := NewStreamBuilder(13, true, StreamOptions{
		Build:        BuildOptions{Workers: 2, Shards: 4},
		MemoryBudget: 1 << 14,
		TempDir:      tmp,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Add(reads)
	if _, err := st.Build(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not cleaned: %d entries left", len(ents))
	}
	if _, err := st.Build(); err == nil {
		t.Fatal("second Build should fail on a consumed builder")
	}

	// Close without Build also cleans up.
	st2, err := NewStreamBuilder(13, true, StreamOptions{
		Build: BuildOptions{Workers: 1}, MemoryBudget: 1 << 14, TempDir: tmp,
	})
	if err != nil {
		t.Fatal(err)
	}
	st2.Add(reads)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := filepath.Glob(filepath.Join(tmp, "kspectrum-spill-*")); len(ents) != 0 {
		t.Fatalf("Close left %d spill dirs", len(ents))
	}
}

// shardBytes reports each shard table's resident footprint.
func shardBytes(st *StreamBuilder) []int64 {
	out := make([]int64, len(st.sb.shards))
	for i := range st.sb.shards {
		out[i] = st.sb.shards[i].counts.ResidentBytes()
	}
	return out
}

// TestStreamBuilderHonorsBudget pins the memory contract of the
// out-of-core engine: across budgets × workers {1, 2, 8}, plain and
// durable, the shard tables together never hold more than
// max(MemoryBudget, shards × the per-shard floor) after any Add. Each
// table stays within its slice of the budget and never shrinks — spills
// and durable Checkpoints empty tables in place — and a table is only
// left to grow by a rehash, which holds the old and the doubled table at
// once, when both fit the slice.
func TestStreamBuilderHonorsBudget(t *testing.T) {
	reads := randomReads(t, 3000)
	want, err := BuildParallel(reads, 13, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	floor := ApproxAccumulatorBytes(minSpillEntries)
	for _, budget := range []int64{1 << 14, 100_000, 1 << 18} {
		for _, workers := range []int{1, 2, 8} {
			for _, durable := range []bool{false, true} {
				t.Run(fmt.Sprintf("budget=%d/workers=%d/durable=%v", budget, workers, durable), func(t *testing.T) {
					opts := StreamOptions{
						Build:        BuildOptions{Workers: workers},
						MemoryBudget: budget,
						TempDir:      t.TempDir(),
					}
					if durable {
						opts.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
						opts.CheckpointEvery = 1500
					}
					st, err := NewStreamBuilder(13, true, opts)
					if err != nil {
						t.Fatal(err)
					}
					// A table the spill hook leaves full is rehashed by
					// the insert that follows; record the largest
					// footprint such a rehash reaches.
					var peakMu sync.Mutex
					var rehashPeak int64
					spill := st.sb.onFull
					st.sb.onFull = func(s int, shard *countShard) {
						before, n := shard.counts.ResidentBytes(), shard.counts.Len()
						spill(s, shard)
						if shard.counts.Len() == n {
							peakMu.Lock()
							rehashPeak = max(rehashPeak, 3*before)
							peakMu.Unlock()
						}
					}
					prev := shardBytes(st)
					limit := max(budget, int64(len(prev))*floor)
					check := func(when string) {
						t.Helper()
						now := shardBytes(st)
						var total int64
						for s, b := range now {
							total += b
							if b > st.spillBytes {
								t.Fatalf("%s: shard %d table holds %d bytes, slice %d", when, s, b, st.spillBytes)
							}
							if b < prev[s] {
								t.Fatalf("%s: shard %d table shrank from %d to %d bytes", when, s, prev[s], b)
							}
						}
						if total > limit {
							t.Fatalf("%s: tables hold %d bytes, limit %d", when, total, limit)
						}
						if rehashPeak > st.spillBytes {
							t.Fatalf("%s: a rehash held %d bytes, slice %d", when, rehashPeak, st.spillBytes)
						}
						prev = now
					}
					// 1100-read chunks are large enough for the worker pool.
					for lo := 0; lo < len(reads); lo += 1100 {
						st.Add(reads[lo:min(lo+1100, len(reads))])
						check("after Add")
					}
					if durable {
						if err := st.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						check("after Checkpoint")
					}
					if st.Stats().SpilledRuns == 0 {
						t.Fatal("nothing spilled")
					}
					got, err := st.Build()
					if err != nil {
						t.Fatal(err)
					}
					spectraEqual(t, want, got, "budgeted stream build")
				})
			}
		}
	}
}

// TestStreamBuilderBudgetIsACap pins that a budget larger than the
// spectrum reserves nothing: without a spill each shard's table is the
// size the in-memory engine would grow it to for its entries.
func TestStreamBuilderBudgetIsACap(t *testing.T) {
	reads := randomReads(t, 1000)
	for _, workers := range []int{1, 2, 8} {
		st, err := NewStreamBuilder(13, true, StreamOptions{
			Build:        BuildOptions{Workers: workers},
			MemoryBudget: 1 << 30,
			TempDir:      t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		st.Add(reads)
		for s := range st.sb.shards {
			c := st.sb.shards[s].counts
			if got, want := c.ResidentBytes(), ApproxAccumulatorBytes(c.Len()); got != want {
				t.Fatalf("workers=%d shard %d: %d entries in %d bytes, want %d", workers, s, c.Len(), got, want)
			}
		}
		if runs := st.Stats().SpilledRuns; runs != 0 {
			t.Fatalf("workers=%d: %d runs spilled under a budget above the footprint", workers, runs)
		}
		if _, err := st.Build(); err != nil {
			t.Fatal(err)
		}
	}
}

// uniformReads returns n reads of 36 uniformly random bases: nearly every
// kmer is distinct, so a run's record count scales with the reads in it.
func uniformReads(n int, seed int64) []seq.Read {
	rng := rand.New(rand.NewSource(seed))
	reads := make([]seq.Read, n)
	for i := range reads {
		b := make([]byte, 36)
		for j := range b {
			b[j] = "ACGT"[rng.Intn(4)]
		}
		reads[i] = seq.Read{Seq: b}
	}
	return reads
}

// TestStreamBuildAllocsScaleWithRuns pins the allocation-free merge: the
// allocations of StreamBuilder.Build grow with the number of runs, not
// with the number of records merged. Durable Checkpoints cut exactly one
// run per shard each, so 4× the records at the same run count must stay
// within a small constant — the few extra growth steps of the output
// slices. One allocation per record (the old boxed heap and escaping
// read buffer) would add tens of thousands.
func TestStreamBuildAllocsScaleWithRuns(t *testing.T) {
	measure := func(n int) (runs int64, records int64, allocs uint64) {
		st, err := NewStreamBuilder(13, true, StreamOptions{
			Build:         BuildOptions{Workers: 1, Shards: 1},
			CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
		})
		if err != nil {
			t.Fatal(err)
		}
		reads := uniformReads(n, 5)
		const cuts = 6
		for i := 0; i < cuts; i++ {
			st.Add(reads[i*n/cuts : (i+1)*n/cuts])
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := st.Build(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		stats := st.Stats()
		return stats.SpilledRuns, stats.SpilledEntries, after.Mallocs - before.Mallocs
	}
	runs, records, small := measure(3000)
	runs4, records4, large := measure(12000)
	if runs != runs4 || records4 < 3*records {
		t.Fatalf("setup: %d runs of %d records vs %d runs of %d records", runs, records, runs4, records4)
	}
	if large > small+40 {
		t.Fatalf("Build made %d allocations merging %d records, %d merging %d over the same %d runs",
			small, records, large, records4, runs)
	}
	t.Logf("%d runs: %d allocations for %d records, %d for %d", runs, small, records, large, records4)
}
