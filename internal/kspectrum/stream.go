package kspectrum

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/seq"
)

// StreamOptions tunes the out-of-core spectrum engine. The zero value never
// spills and is equivalent to the in-memory SpectrumBuilder.
type StreamOptions struct {
	// Build configures the underlying sharded parallel engine.
	Build BuildOptions
	// MemoryBudget caps the resident bytes of the counting accumulators
	// across all shards; <= 0 means unlimited — nothing is ever spilled.
	// It is a cap, not a reservation: each shard gets an equal slice of
	// the budget, and its Counter starts small and grows with the data
	// only while the rehash (old and doubled tables together, by
	// Counter.ResidentBytes) fits the slice. Past that a full table is
	// spilled and emptied, once doubled without a rehash if the doubled
	// table alone still fits, so the tables never exceed the budget.
	MemoryBudget int64
	// TempDir is where spilled run files live; "" uses os.TempDir(). A
	// fresh subdirectory is created per builder and removed by Build/Close.
	// Ignored when CheckpointDir is set: durable runs live there instead.
	TempDir string
	// CheckpointDir, when non-empty, makes the build crash-safe: run files
	// carry headers and CRC-32C trailers, are fsynced, and live in this
	// directory alongside a periodically rewritten manifest recording the
	// read cursor they cover. The directory survives failures and
	// cancellation (that is its purpose) and is removed only by a
	// successful Build. Checkpointed Adds are serialized internally, and
	// resume is only correct when the caller streams the same reads in
	// the same order as the interrupted build.
	CheckpointDir string
	// Resume adopts the manifest already in CheckpointDir: surviving runs
	// are revalidated (header + full CRC), unlisted runs are deleted, and
	// Add skips the leading reads the manifest covers. Without a manifest
	// (a build killed before its first checkpoint) resume degenerates to
	// a fresh build. A corrupt manifest or run is a hard ErrCheckpoint —
	// delete the directory to rebuild from scratch.
	Resume bool
	// CheckpointEvery is the number of reads between automatic
	// checkpoints in durable mode; <= 0 means the default (262144).
	CheckpointEvery int64
	// Context, when non-nil, cancels the out-of-core machinery: once it
	// is done, spills stop writing and Build aborts its merge loops at
	// the next batch boundary, returning ctx.Err(). nil is never
	// cancelled (context.Background()).
	Context context.Context
}

// minSpillEntries floors the per-shard table size so pathological budgets
// degrade into many small runs rather than a run per few inserts.
const minSpillEntries = 64

// defaultCheckpointEvery is the read interval between automatic durable
// checkpoints when StreamOptions.CheckpointEvery is unset.
const defaultCheckpointEvery = 1 << 18

// StreamStats describes a builder's spill activity.
type StreamStats struct {
	// SpilledRuns is the number of sorted run files written.
	SpilledRuns int64
	// SpilledEntries is the total distinct-kmer entries across all runs
	// (the same kmer may recur in later runs of the same shard).
	SpilledEntries int64
	// SpilledBytes is the total on-disk size of all runs.
	SpilledBytes int64
}

// runInfo identifies one written run file and its integrity metadata —
// what the manifest records and resume revalidates.
type runInfo struct {
	path    string
	shard   int
	entries int64
	bytes   int64
	crc     uint32
}

// StreamBuilder is the out-of-core variant of SpectrumBuilder (§2.3's
// divide-and-merge taken past memory): counting workers scatter kmers into
// high-bit prefix shards exactly as the in-memory engine does, but each
// shard's table is capped by its slice of the MemoryBudget, and a table
// about to outgrow the cap is spilled to a sorted run file in a temp
// directory and emptied. Build merges each
// shard's runs with its in-memory residue — the prefix partition keeps shard
// ranges disjoint and ordered, so the final cross-shard merge is a
// concatenation — and yields a Spectrum byte-identical to the in-memory
// path. Unlike SpectrumBuilder, Build is one-shot: it consumes the spilled
// runs and closes the builder.
//
// With StreamOptions.CheckpointDir set the builder is additionally
// crash-safe; see the manifest machinery in manifest.go.
type StreamBuilder struct {
	sb *SpectrumBuilder
	// ctx cancels spill and merge work; never nil.
	ctx context.Context
	// spillBytes is the per-shard slice of the MemoryBudget that caps each
	// shard's table (0 = unlimited, never spill).
	spillBytes int64
	dir        string
	// durable marks a checkpointing builder: runs are fsynced, dir is the
	// caller's CheckpointDir and survives everything but a successful
	// Build.
	durable   bool
	ckptEvery int64
	// runs[s] lists shard s's spilled run files, in spill order; guarded
	// by shard s's stripe lock (only flushers of s append).
	runs [][]runInfo
	// runSeq names run files uniquely across shards.
	runSeq atomic.Int64

	// addMu serializes Add/Checkpoint in durable mode, making the read
	// cursor well-defined.
	addMu sync.Mutex
	// seen counts reads streamed through Add (including skipped ones);
	// cursor is the resume skip threshold; lastCkpt the cursor at the
	// newest manifest. All guarded by addMu.
	seen, cursor, lastCkpt int64
	resumedFrom            int64

	stats struct {
		runs, entries, bytes atomic.Int64
	}

	// errMu guards err, the first spill/checkpoint failure; surfaced by
	// Build.
	errMu  sync.Mutex
	err    error
	closed bool
}

// NewStreamBuilder validates k and prepares an out-of-core accumulator.
func NewStreamBuilder(k int, bothStrands bool, opts StreamOptions) (*StreamBuilder, error) {
	var m *manifest
	if opts.CheckpointDir != "" {
		if opts.Resume {
			var err error
			if m, err = readManifestFile(opts.CheckpointDir); err != nil {
				return nil, err
			}
			if m != nil {
				if m.K != k || m.BothStrands != bothStrands {
					return nil, checkpointErr("manifest built with k=%d bothStrands=%v, resuming with k=%d bothStrands=%v",
						m.K, m.BothStrands, k, bothStrands)
				}
				// The run partition is only valid under the manifest's
				// shard geometry; adopt it over the caller's.
				opts.Build.Shards = m.Shards
			}
		} else if _, err := os.Stat(filepath.Join(opts.CheckpointDir, ManifestName)); err == nil {
			return nil, checkpointErr("directory %s already holds a manifest; resume it or delete the directory",
				opts.CheckpointDir)
		}
	}
	sb, err := NewSpectrumBuilder(k, bothStrands, opts.Build)
	if err != nil {
		return nil, err
	}
	st := &StreamBuilder{sb: sb, ctx: opts.Context, durable: opts.CheckpointDir != ""}
	if st.ctx == nil {
		st.ctx = context.Background()
	}
	if opts.MemoryBudget > 0 {
		// Floor each shard's slice at the footprint of a table holding
		// minSpillEntries, so pathological budgets degrade into many small
		// runs rather than a run per flush.
		st.spillBytes = max(opts.MemoryBudget/int64(len(sb.shards)),
			ApproxAccumulatorBytes(minSpillEntries))
	}
	switch {
	case st.durable:
		st.dir = opts.CheckpointDir
		if err := os.MkdirAll(st.dir, 0o755); err != nil {
			return nil, fmt.Errorf("kspectrum: checkpoint dir: %w", err)
		}
		st.ckptEvery = opts.CheckpointEvery
		if st.ckptEvery <= 0 {
			st.ckptEvery = defaultCheckpointEvery
		}
	case st.spillBytes > 0:
		st.dir, err = os.MkdirTemp(opts.TempDir, "kspectrum-spill-*")
		if err != nil {
			return nil, fmt.Errorf("kspectrum: spill dir: %w", err)
		}
	}
	if st.dir != "" {
		st.runs = make([][]runInfo, len(sb.shards))
	}
	if st.spillBytes > 0 {
		sb.onFull = st.spill
	}
	if st.durable {
		if m != nil {
			if len(sb.shards) != m.Shards {
				return nil, checkpointErr("manifest shards=%d resolved to %d; geometry caps changed", m.Shards, len(sb.shards))
			}
			if err := st.adoptManifest(m); err != nil {
				return nil, err
			}
		} else if err := st.removeStrayRuns(nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// adoptManifest loads a validated manifest's state into the builder:
// every listed run is revalidated end to end, unlisted run files are
// deleted (they cover reads past the cursor, which will be counted
// again), and the read cursor arms Add's skip logic.
func (st *StreamBuilder) adoptManifest(m *manifest) error {
	keep := make(map[string]bool, len(m.Runs))
	for _, mr := range m.Runs {
		if mr.Shard < 0 || mr.Shard >= len(st.runs) {
			return checkpointErr("run %s: shard %d out of range [0,%d)", mr.File, mr.Shard, len(st.runs))
		}
		ri := runInfo{
			path:    filepath.Join(st.dir, mr.File),
			shard:   mr.Shard,
			entries: mr.Entries,
			bytes:   mr.Bytes,
			crc:     mr.CRC,
		}
		if ri.bytes != runSize(ri.entries) {
			return checkpointErr("run %s: %d entries cannot occupy %d bytes", mr.File, ri.entries, ri.bytes)
		}
		if err := validateRun(ri, st.sb.k, st.sb.bothStrands); err != nil {
			return err
		}
		st.runs[mr.Shard] = append(st.runs[mr.Shard], ri)
		st.stats.runs.Add(1)
		st.stats.entries.Add(ri.entries)
		st.stats.bytes.Add(ri.bytes)
		keep[mr.File] = true
	}
	if err := st.removeStrayRuns(keep); err != nil {
		return err
	}
	st.runSeq.Store(m.NextRun)
	st.cursor = m.Reads
	st.resumedFrom = m.Reads
	st.lastCkpt = m.Reads
	return nil
}

// removeStrayRuns deletes run files the manifest does not list: they
// were spilled after the newest manifest (or belong to a build killed
// before its first checkpoint) and cover reads the resume will count
// again — merging them would double-count.
func (st *StreamBuilder) removeStrayRuns(keep map[string]bool) error {
	matches, err := filepath.Glob(filepath.Join(st.dir, "run*.bin"))
	if err != nil {
		return err
	}
	for _, p := range matches {
		if keep[filepath.Base(p)] {
			continue
		}
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("kspectrum: checkpoint: removing stray run: %w", err)
		}
	}
	return nil
}

// Add merges one chunk of reads into the accumulator; safe for concurrent
// use, exactly like SpectrumBuilder.Add. In durable mode Adds serialize
// internally, leading reads up to the resumed cursor are skipped (their
// counts already live in the adopted runs), and an automatic checkpoint
// fires every CheckpointEvery reads.
func (st *StreamBuilder) Add(reads []seq.Read) {
	if !st.durable {
		st.sb.Add(reads)
		return
	}
	st.addMu.Lock()
	defer st.addMu.Unlock()
	batch := reads
	if skip := st.cursor - st.seen; skip > 0 {
		if skip >= int64(len(reads)) {
			st.seen += int64(len(reads))
			return
		}
		batch = reads[skip:]
	}
	st.sb.Add(batch)
	st.seen += int64(len(reads))
	if st.seen-st.lastCkpt >= st.ckptEvery {
		if err := st.checkpointLocked(); err != nil {
			st.fail(err)
		}
	}
}

// Checkpoint forces a durable checkpoint covering every read Added so
// far: all accumulators flush to fsynced runs and the manifest is
// atomically rewritten. Only valid on a builder with a CheckpointDir.
func (st *StreamBuilder) Checkpoint() error {
	if !st.durable {
		return fmt.Errorf("kspectrum: Checkpoint on a builder without a CheckpointDir")
	}
	st.addMu.Lock()
	defer st.addMu.Unlock()
	if st.closed {
		return fmt.Errorf("kspectrum: StreamBuilder used after Build/Close")
	}
	return st.checkpointLocked()
}

// Resumed reports the read cursor adopted from a manifest at
// construction — the number of leading reads Add skips. Zero for a
// fresh build.
func (st *StreamBuilder) Resumed() int64 { return st.resumedFrom }

// checkpointLocked (addMu held) drains every shard's accumulator to a
// durable run, then publishes a manifest covering st.seen reads. On
// failure the manifest is not advanced: the previous checkpoint stays
// authoritative and any runs written here are strays a resume deletes.
func (st *StreamBuilder) checkpointLocked() error {
	if err := st.ctx.Err(); err != nil {
		return err
	}
	for s := range st.sb.shards {
		shard := &st.sb.shards[s]
		shard.mu.Lock()
		if shard.counts.Len() == 0 {
			shard.mu.Unlock()
			continue
		}
		kmers := make([]seq.Kmer, 0, shard.counts.Len())
		counts := make([]uint32, 0, shard.counts.Len())
		kmers, counts = shard.counts.AppendSortedInto(kmers, counts)
		ri, err := st.writeRunFile(s, kmers, counts)
		if err != nil {
			shard.mu.Unlock()
			return err
		}
		st.runs[s] = append(st.runs[s], ri)
		st.stats.runs.Add(1)
		st.stats.entries.Add(ri.entries)
		st.stats.bytes.Add(ri.bytes)
		shard.counts.Reset()
		shard.mu.Unlock()
	}
	m := &manifest{
		K:           st.sb.k,
		BothStrands: st.sb.bothStrands,
		Shards:      len(st.sb.shards),
		Reads:       st.seen,
		NextRun:     st.runSeq.Load(),
	}
	for s := range st.runs {
		for _, ri := range st.runs[s] {
			m.Runs = append(m.Runs, manifestRun{
				File:    filepath.Base(ri.path),
				Shard:   s,
				Entries: ri.entries,
				Bytes:   ri.bytes,
				CRC:     ri.crc,
			})
		}
	}
	if err := writeManifestFile(st.dir, m); err != nil {
		return err
	}
	st.lastCkpt = st.seen
	return nil
}

// fail records the first spill/checkpoint failure for Build to surface.
func (st *StreamBuilder) fail(err error) {
	st.errMu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.errMu.Unlock()
}

// Stats reports the spill activity so far.
func (st *StreamBuilder) Stats() StreamStats {
	return StreamStats{
		SpilledRuns:    st.stats.runs.Load(),
		SpilledEntries: st.stats.entries.Load(),
		SpilledBytes:   st.stats.bytes.Load(),
	}
}

// spill runs under the shard's stripe lock when its table is full and the
// next insert would rehash it. While the rehash, which holds the old and
// the doubled table at once, fits the shard's slice of the budget, spill
// does nothing and the table grows. Past that the table is drained to a
// sorted run file and emptied: doubled without a rehash when the doubled
// table alone fits the slice, else Reset in place at its cap. I/O errors
// are recorded once and surfaced by Build; after a failure the engine
// stops spilling and the full table grows instead (counting stays
// correct, memory is no longer bounded).
func (st *StreamBuilder) spill(s int, shard *countShard) {
	tableBytes := shard.counts.ResidentBytes()
	if 3*tableBytes <= st.spillBytes {
		return
	}
	// A cancelled build stops investing in spill I/O; the recorded
	// ctx.Err() surfaces from Build exactly like a spill failure.
	if err := st.ctx.Err(); err != nil {
		st.fail(err)
		return
	}
	st.errMu.Lock()
	failed := st.err != nil
	st.errMu.Unlock()
	if failed {
		return
	}
	kmers := make([]seq.Kmer, 0, shard.counts.Len())
	counts := make([]uint32, 0, shard.counts.Len())
	kmers, counts = shard.counts.AppendSortedInto(kmers, counts)
	ri, err := st.writeRunFile(s, kmers, counts)
	if err != nil {
		st.fail(err)
		return
	}
	st.runs[s] = append(st.runs[s], ri)
	st.stats.runs.Add(1)
	st.stats.entries.Add(ri.entries)
	st.stats.bytes.Add(ri.bytes)
	if 2*tableBytes <= st.spillBytes {
		shard.counts.growEmpty()
	} else {
		shard.counts.Reset()
	}
}

// runEntryBytes is the fixed on-disk size of one (kmer, count) record.
const runEntryBytes = 12

// writeRunFile names and writes one run for shard s.
func (st *StreamBuilder) writeRunFile(s int, kmers []seq.Kmer, counts []uint32) (runInfo, error) {
	path := filepath.Join(st.dir, fmt.Sprintf("run%06d.bin", st.runSeq.Add(1)))
	h := runHeader{k: st.sb.k, bothStrands: st.sb.bothStrands, shard: s, count: int64(len(kmers))}
	sum, err := writeRun(path, h, kmers, counts, st.durable)
	if err != nil {
		return runInfo{}, err
	}
	return runInfo{
		path:    path,
		shard:   s,
		entries: int64(len(kmers)),
		bytes:   runSize(int64(len(kmers))),
		crc:     sum,
	}, nil
}

// writeRun writes one sorted run: header, fixed-width little-endian
// (kmer uint64, count uint32) records, CRC-32C trailer. durable
// additionally fsyncs — a manifest must never reference a run whose
// bytes could still be lost by a crash. Every failure path removes the
// partial file: durable directories outlive the builder, so a leaked
// partial would linger forever and a resume must never find a torn run.
func writeRun(path string, h runHeader, kmers []seq.Kmer, counts []uint32, durable bool) (uint32, error) {
	f, err := faultinject.Create(faultinject.SiteSpill, path)
	if err != nil {
		return 0, fmt.Errorf("kspectrum: spill: %w", err)
	}
	fail := func(err error) (uint32, error) {
		f.Close()
		os.Remove(path)
		return 0, fmt.Errorf("kspectrum: spill: %w", err)
	}
	crc := crc32.New(crcTable)
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<16)
	hdr := h.encode()
	if _, err := bw.Write(hdr[:]); err != nil {
		return fail(err)
	}
	var rec [runEntryBytes]byte
	for i, km := range kmers {
		binary.LittleEndian.PutUint64(rec[:8], uint64(km))
		binary.LittleEndian.PutUint32(rec[8:], counts[i])
		if _, err := bw.Write(rec[:]); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	// The trailer covers everything before it, so it bypasses the
	// buffered/CRC path; direct writes must catch the n < len, nil-error
	// contract violation themselves.
	sum := crc.Sum32()
	binary.LittleEndian.PutUint32(rec[:4], sum)
	if n, err := f.Write(rec[:4]); err != nil {
		return fail(err)
	} else if n != 4 {
		return fail(io.ErrShortWrite)
	}
	if durable {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return 0, fmt.Errorf("kspectrum: spill: %w", err)
	}
	return sum, nil
}

// Build merges every shard's spilled runs with its in-memory residue and
// returns the finished spectrum. Shard s holds exactly the kmers whose high
// bits equal s — in every run and in the residue — so shard ranges are
// disjoint and ordered and the cross-shard merge is a concatenation,
// preserving byte-identity with the in-memory engine (see DESIGN.md §4).
// Build consumes the builder: the spill directory is removed — including a
// durable checkpoint directory, whose job ends with a successful build —
// and further use is an error. On failure a checkpoint directory is kept
// for resumption.
func (st *StreamBuilder) Build() (*Spectrum, error) {
	if st.closed {
		return nil, fmt.Errorf("kspectrum: StreamBuilder used after Build/Close")
	}
	st.closed = true
	st.errMu.Lock()
	err := st.err
	st.errMu.Unlock()
	if err == nil {
		err = st.ctx.Err()
	}
	if err != nil {
		st.cleanup()
		return nil, err
	}

	type shardRun struct {
		kmers  []seq.Kmer
		counts []uint32
	}
	merged := make([]shardRun, len(st.sb.shards))
	errs := make([]error, len(st.sb.shards))
	work := make(chan int, len(st.sb.shards))
	var wg sync.WaitGroup
	for w := 0; w < min(st.sb.workers, len(st.sb.shards)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				kmers, counts, err := st.mergeShard(s)
				merged[s] = shardRun{kmers: kmers, counts: counts}
				errs[s] = err
			}
		}()
	}
	for s := range st.sb.shards {
		work <- s
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.cleanup()
			return nil, err
		}
	}

	total := 0
	for _, r := range merged {
		total += len(r.kmers)
	}
	spec := &Spectrum{
		K:           st.sb.k,
		BothStrands: st.sb.bothStrands,
		Kmers:       make([]seq.Kmer, 0, total),
		Counts:      make([]uint32, 0, total),
	}
	for _, r := range merged {
		spec.Kmers = append(spec.Kmers, r.kmers...)
		spec.Counts = append(spec.Counts, r.counts...)
	}
	spec.freezeIndex()
	st.removeDir()
	return spec, nil
}

// Close abandons the builder. Plain spill directories are removed; a
// durable checkpoint directory is kept — it is exactly the artifact a
// later resume needs after a failure or cancellation. It is safe to call
// after Build (a no-op then).
func (st *StreamBuilder) Close() error {
	st.closed = true
	return st.cleanup()
}

// cleanup removes the spill directory unless it is a durable checkpoint
// directory, which survives everything except a successful Build.
func (st *StreamBuilder) cleanup() error {
	if st.durable {
		return nil
	}
	return st.removeDir()
}

func (st *StreamBuilder) removeDir() error {
	if st.dir == "" {
		return nil
	}
	dir := st.dir
	st.dir = ""
	return os.RemoveAll(dir)
}

// mergeShard produces shard s's slice of the final spectrum: the in-memory
// residue sorted, then k-way merged with the shard's sorted runs, summing
// counts of kmers that appear in several sources.
func (st *StreamBuilder) mergeShard(s int) ([]seq.Kmer, []uint32, error) {
	shard := &st.sb.shards[s]
	shard.mu.Lock()
	kmers := make([]seq.Kmer, 0, shard.counts.Len())
	counts := make([]uint32, 0, shard.counts.Len())
	kmers, counts = shard.counts.AppendSortedInto(kmers, counts)
	var runs []runInfo
	if st.runs != nil {
		runs = st.runs[s]
	}
	shard.mu.Unlock()

	if len(runs) == 0 {
		return kmers, counts, nil
	}

	streams := make([]runStream, 0, len(runs)+1)
	defer func() {
		for i := range streams {
			streams[i].close()
		}
	}()
	for _, ri := range runs {
		rs, err := openRunStream(ri.path)
		if err != nil {
			return nil, nil, fmt.Errorf("kspectrum: merge %s: %w", filepath.Base(ri.path), err)
		}
		streams = append(streams, rs)
	}
	if len(kmers) > 0 {
		streams = append(streams, runStream{memK: kmers, memC: counts})
	}
	// srcErr names the source of a failed read: only run files can fail.
	srcErr := func(src int, err error) error {
		return fmt.Errorf("kspectrum: merge %s: %w", filepath.Base(runs[src].path), err)
	}

	h := make(mergeHeap, 0, len(streams))
	for i := range streams {
		km, c, ok, err := streams[i].next()
		if err != nil {
			return nil, nil, srcErr(i, err)
		}
		if ok {
			h = append(h, runHead{km: km, count: c, src: i})
		}
	}
	h.init()

	var outK []seq.Kmer
	var outC []uint32
	for n := 0; len(h) > 0; n++ {
		// The merge is the long tail of an out-of-core build; poll the
		// context every batch so cancellation aborts it promptly without
		// a per-record overhead.
		if n&8191 == 0 {
			if err := st.ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		head := &h[0]
		if n := len(outK); n > 0 && outK[n-1] == head.km {
			outC[n-1] += head.count
		} else {
			outK = append(outK, head.km)
			outC = append(outC, head.count)
		}
		km, c, ok, err := streams[head.src].next()
		if err != nil {
			return nil, nil, srcErr(head.src, err)
		}
		if ok {
			head.km, head.count = km, c
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return outK, outC, nil
}

// mergeBufBytes caps the read-block size of one run stream: a whole number
// of records, about 64 KiB. Smaller runs get a buffer of their own size.
const mergeBufBytes = (1 << 16) / runEntryBytes * runEntryBytes

// runStream iterates one sorted source: a run file or the in-memory residue.
// A run file is read a block at a time into the stream's own buffer and
// its records decoded from there, so advancing a stream allocates nothing.
// File sources carry the header's record count; hitting end-of-file before
// it is exhausted is a truncation error, not a clean end.
type runStream struct {
	f *os.File
	r io.Reader // f behind the fault-injection seam; nil for the residue
	// remaining counts the records not yet read into buf; buf[off:] holds
	// the read but undecoded ones.
	remaining int64
	buf       []byte
	off       int
	memK      []seq.Kmer
	memC      []uint32
	pos       int
}

// openRunStream opens a run file and reads its header, leaving the stream
// at the first record.
func openRunStream(path string) (runStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return runStream{}, err
	}
	r := faultinject.Reader(faultinject.SiteMerge, f)
	var hdr [runHeaderLen]byte
	_, err = io.ReadFull(r, hdr[:])
	var h runHeader
	if err == nil {
		h, err = decodeRunHeader(hdr[:])
	}
	if err != nil {
		f.Close()
		return runStream{}, err
	}
	bufLen := min(h.count*runEntryBytes, mergeBufBytes)
	return runStream{f: f, r: r, remaining: h.count, buf: make([]byte, 0, bufLen)}, nil
}

// next returns the source's next record; ok is false once it is exhausted.
// Errors come back unwrapped; the merge names the run they belong to.
//
//repro:noalloc
func (rs *runStream) next() (km seq.Kmer, count uint32, ok bool, err error) {
	if rs.r == nil {
		if rs.pos >= len(rs.memK) {
			return 0, 0, false, nil
		}
		km, count = rs.memK[rs.pos], rs.memC[rs.pos]
		rs.pos++
		return km, count, true, nil
	}
	if rs.off == len(rs.buf) {
		if rs.remaining <= 0 {
			return 0, 0, false, nil
		}
		if err := rs.fill(); err != nil {
			return 0, 0, false, err
		}
	}
	rec := rs.buf[rs.off : rs.off+runEntryBytes]
	rs.off += runEntryBytes
	return seq.Kmer(binary.LittleEndian.Uint64(rec[:8])), binary.LittleEndian.Uint32(rec[8:]), true, nil
}

// fill reads the next block of records into the emptied buffer.
//
//repro:noalloc
func (rs *runStream) fill() error {
	n := min(rs.remaining, int64(cap(rs.buf)/runEntryBytes))
	rs.buf = rs.buf[:n*runEntryBytes]
	rs.off = 0
	if _, err := io.ReadFull(rs.r, rs.buf); err != nil {
		rs.buf = rs.buf[:0]
		return err
	}
	rs.remaining -= n
	return nil
}

func (rs *runStream) close() {
	if rs.f != nil {
		rs.f.Close()
	}
}

// runHead is one source's current minimum in the shard merge heap.
type runHead struct {
	km    seq.Kmer
	count uint32
	src   int
}

// mergeHeap is a binary min-heap of the sources' current records keyed by
// kmer. Typed rather than driven through container/heap, it boxes nothing:
// replacing or dropping the top and sifting it down allocates nothing.
type mergeHeap []runHead

func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts h[i] down to restore the heap order below it.
//
//repro:noalloc
func (h mergeHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].km < h[j].km {
			j = r
		}
		if h[i].km <= h[j].km {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// BuildOutOfCore constructs the spectrum from an in-memory read set through
// the out-of-core engine, returning the spill statistics alongside. It is
// the one-shot convenience over NewStreamBuilder/Add/Build that redeem and
// the benchmarks use.
func BuildOutOfCore(reads []seq.Read, k int, bothStrands bool, opts StreamOptions) (*Spectrum, StreamStats, error) {
	st, err := NewStreamBuilder(k, bothStrands, opts)
	if err != nil {
		return nil, StreamStats{}, err
	}
	st.Add(reads)
	spec, err := st.Build()
	return spec, st.Stats(), err
}
