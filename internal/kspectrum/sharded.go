package kspectrum

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
)

// BuildOptions tunes the sharded parallel spectrum engine. The zero value
// asks for full parallelism: all cores counting into a worker-scaled number
// of shards. Results are byte-identical for every (Workers, Shards) choice —
// occurrence counting is commutative and the shard partition is a refinement
// of the sorted order — so parallelism is purely a throughput knob.
type BuildOptions struct {
	// Workers is the number of counting goroutines each Add call fans its
	// read chunks out to (<= 0 selects GOMAXPROCS). The bound is per call:
	// callers streaming chunks through concurrent Adds multiply it.
	Workers int
	// Shards is the number of kmer-space partitions. Kmers are routed by
	// their high bits, so each shard owns one contiguous range of the
	// sorted spectrum. The value is rounded up to a power of two and capped
	// at min(4^k, 1024); <= 0 derives 4x the worker count (1 when serial).
	Shards int
}

// resolve materializes the option defaults for a given k.
func (o BuildOptions) resolve(k int) (workers int, shardBits uint) {
	workers = o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := o.Shards
	if shards <= 0 {
		if workers == 1 {
			shards = 1
		} else {
			shards = 4 * workers
		}
	}
	return workers, prefixBitsFor(shards, min(10, uint(2*k)))
}

// chunkSize is the read-batch granularity of the producer: large enough to
// amortize channel and lock traffic, small enough to balance uneven chunks.
const chunkSize = 512

// countShard is one stripe of the accumulator: a contiguous high-bit range
// of kmer space with its own lock, so concurrent writers only contend when
// flushing into the same range. Counting goes through the open-addressing
// Counter rather than a Go map — see counter.go.
//
// Chunks flush into a shard in the order they were handed out: turn is
// the flush turn the shard is waiting for, and cond (on mu) wakes the
// workers queued behind it.
type countShard struct {
	mu     sync.Mutex
	cond   sync.Cond
	turn   int64
	counts *Counter
}

// SpectrumBuilder accumulates the k-spectrum incrementally, supporting the
// §2.3 divide-and-merge strategy: read chunks are streamed through Add and
// need not be retained. Internally it is a sharded parallel engine — each
// Add scatters kmers into per-shard buffers by high bits and flushes them
// into striped accumulators, so Add is safe to call from multiple
// goroutines and large chunks are counted by a worker pool.
type SpectrumBuilder struct {
	k           int
	bothStrands bool
	workers     int
	part        PrefixPartition
	shards      []countShard
	// turns counts the chunks handed out so far; each chunk's index in
	// that sequence is its flush turn.
	turns atomic.Int64

	// onFull, when set, is invoked with the shard's stripe lock held just
	// before an insert that would make its Counter rehash. It is the
	// out-of-core hook: the StreamBuilder spills a table that has reached
	// its budget cap to a run and empties it from here (see stream.go). A
	// table the hook leaves full grows as it would without the hook.
	onFull func(s int, shard *countShard)
}

// NewSpectrumBuilder validates k and prepares an empty accumulator. An
// optional BuildOptions configures parallelism; omitting it uses the
// defaults (all cores, worker-scaled shard count).
func NewSpectrumBuilder(k int, bothStrands bool, opts ...BuildOptions) (*SpectrumBuilder, error) {
	if k <= 0 || k > seq.MaxK {
		return nil, errInvalidK(k)
	}
	var o BuildOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	workers, shardBits := o.resolve(k)
	part := PrefixPartition{K: k, Bits: shardBits}
	sb := &SpectrumBuilder{
		k:           k,
		bothStrands: bothStrands,
		workers:     workers,
		part:        part,
		shards:      make([]countShard, part.Shards()),
	}
	for i := range sb.shards {
		sb.shards[i].cond.L = &sb.shards[i].mu
		sb.shards[i].counts = NewCounter(0)
	}
	return sb, nil
}

// Add merges one chunk of reads into the accumulator, fanning large chunks
// out to the builder's counting workers. It may be called concurrently.
func (sb *SpectrumBuilder) Add(reads []seq.Read) {
	n := int64((len(reads) + chunkSize - 1) / chunkSize)
	first := sb.turns.Add(n) - n
	countChunks(reads, sb.workers, func() func([]seq.Read, int) {
		buf := make([][]seq.Kmer, len(sb.shards))
		return func(chunk []seq.Read, i int) { sb.countChunk(chunk, buf, first+int64(i)) }
	})
}

// windowsIn counts the length-k windows of reads' sequences: an upper
// bound on the kmers (or tiles) one strand of them yields.
func windowsIn(reads []seq.Read, k int) int {
	n := 0
	for _, r := range reads {
		n += max(0, len(r.Seq)-k+1)
	}
	return n
}

// resetBuffers empties per-shard scatter buffers that are about to
// receive about total elements between them, first growing any whose
// capacity is under an even share plus a quarter. Growing them by append
// instead would allocate several times their final size, because large
// slices grow in 1.25× steps.
func resetBuffers[T any](bufs [][]T, total int) {
	want := (total + total/4) / len(bufs)
	for s := range bufs {
		if cap(bufs[s]) < want {
			bufs[s] = make([]T, 0, want)
		} else {
			bufs[s] = bufs[s][:0]
		}
	}
}

// countChunks feeds reads in chunkSize chunks, each with its index, to
// counting functions made by newCounter, one per goroutine, so each may
// own scratch buffers: a single function counts serially when workers is
// 1 or the input is small (still chunked, so scatter buffers stay
// cache-sized); otherwise a pool of workers goroutines takes the chunks
// in index order.
func countChunks(reads []seq.Read, workers int, newCounter func() func([]seq.Read, int)) {
	if len(reads) == 0 {
		return
	}
	if workers == 1 || len(reads) < 2*chunkSize {
		count := newCounter()
		for i, lo := 0, 0; lo < len(reads); i, lo = i+1, lo+chunkSize {
			count(reads[lo:min(lo+chunkSize, len(reads))], i)
		}
		return
	}
	// One chunk index queued per worker keeps every worker fed.
	chunks := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			count := newCounter()
			for i := range chunks {
				lo := i * chunkSize
				count(reads[lo:min(lo+chunkSize, len(reads))], i)
			}
		}()
	}
	for i := 0; i*chunkSize < len(reads); i++ {
		chunks <- i
	}
	close(chunks)
	wg.Wait()
}

// countChunk scatters one read chunk's kmers into the caller-owned
// per-shard buffers (reused across chunks, reset here), then flushes each
// buffer into its striped accumulator under the stripe lock. Buffering
// keeps the critical section to a tight increment loop.
//
// Each shard takes the chunks' flushes strictly in turn order, so it sees
// the same sequence of kmers however the chunks were spread over workers.
// The counts would be the same in any order, but an out-of-core table
// fills, and spills, at a point that depends on the order: in turn order
// a build writes the same runs on every run. The worker holding the
// oldest outstanding turn never waits, so the pool always progresses.
func (sb *SpectrumBuilder) countChunk(reads []seq.Read, buf [][]seq.Kmer, turn int64) {
	n := windowsIn(reads, sb.k)
	if sb.bothStrands {
		n *= 2
	}
	resetBuffers(buf, n)
	for _, r := range reads {
		ForEachKmer(r.Seq, sb.k, func(km seq.Kmer, _ int) {
			buf[sb.part.ShardOf(km)] = append(buf[sb.part.ShardOf(km)], km)
			if sb.bothStrands {
				rc := seq.RevComp(km, sb.k)
				buf[sb.part.ShardOf(rc)] = append(buf[sb.part.ShardOf(rc)], rc)
			}
		})
	}
	for s := range buf {
		shard := &sb.shards[s]
		shard.mu.Lock()
		for shard.turn != turn {
			shard.cond.Wait()
		}
		for _, km := range buf[s] {
			if !shard.counts.tryInc(km, 1) {
				if sb.onFull != nil {
					sb.onFull(s, shard)
				}
				shard.counts.Inc(km, 1)
			}
		}
		shard.turn++
		shard.cond.Broadcast()
		shard.mu.Unlock()
	}
}

// Build finalizes the sorted spectrum: each shard is extracted and sorted
// independently (in parallel), and because shard s holds exactly the kmers
// whose high bits equal s, the k-way merge of the sorted shards degenerates
// to concatenation in shard order. The builder remains usable afterwards.
func (sb *SpectrumBuilder) Build() *Spectrum {
	type shardRun struct {
		kmers  []seq.Kmer
		counts []uint32
	}
	runs := make([]shardRun, len(sb.shards))
	var wg sync.WaitGroup
	work := make(chan int, len(sb.shards))
	for w := 0; w < min(sb.workers, len(sb.shards)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				shard := &sb.shards[s]
				shard.mu.Lock()
				if shard.counts.Len() == 0 {
					shard.mu.Unlock()
					continue
				}
				kmers := make([]seq.Kmer, 0, shard.counts.Len())
				counts := make([]uint32, 0, shard.counts.Len())
				kmers, counts = shard.counts.AppendSortedInto(kmers, counts)
				shard.mu.Unlock()
				runs[s] = shardRun{kmers: kmers, counts: counts}
			}
		}()
	}
	for s := range sb.shards {
		work <- s
	}
	close(work)
	wg.Wait()

	total := 0
	for _, r := range runs {
		total += len(r.kmers)
	}
	s := &Spectrum{
		K:           sb.k,
		BothStrands: sb.bothStrands,
		Kmers:       make([]seq.Kmer, 0, total),
		Counts:      make([]uint32, 0, total),
	}
	for _, r := range runs {
		s.Kmers = append(s.Kmers, r.kmers...)
		s.Counts = append(s.Counts, r.counts...)
	}
	s.freezeIndex()
	return s
}
