package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/reptile"
	"repro/internal/seq"
)

// The batch and build workloads run each pass in a fresh child process,
// so every pass pays its own cold start and reports its own peak RSS: a
// faster build that ignores its memory budget shows.

// childArg, as the first argument, makes the binary run one pass.
const childArg = "__pass"

// passSpec is what a child process is asked to run.
type passSpec struct {
	Kind      string // "batch" or "build"
	In, Out   string // input FASTQ; corrected FASTQ (batch) or store (build)
	GenomeLen int
	Workers   int
	// MemoryBudget bounds the out-of-core counters (build).
	MemoryBudget int64
	TempDir      string
	Trace        bool
	Run          string
}

// passResult is what a child process reports.
type passResult struct {
	WallS     float64 // decode through output written
	PeakRSSMB float64
	Reads     int
	// Traced passes only: spans against Epoch (Unix ns) and the layer
	// metrics derived from them and from the direct layer drives.
	Epoch  int64
	Spans  []span
	Layers map[string]float64
}

func childMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: a pass takes one JSON argument")
		return 2
	}
	var spec passSpec
	if err := json.Unmarshal([]byte(args[0]), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: pass spec: %v\n", err)
		return 2
	}
	res, err := runPass(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s pass: %v\n", spec.Kind, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runPass is one batch or build pass: FASTQ bytes in memory, decoded in
// chunks, Reptile Phase 1 (reptile.Builder Add/Finish), then either the
// correction and the FASTQ encoding (batch) or the spectrum store write
// (build). Only that sequence is timed.
func runPass(spec passSpec) (passResult, error) {
	data, err := os.ReadFile(spec.In)
	if err != nil {
		return passResult{}, err
	}
	var tr *tracer
	if spec.Trace {
		tr = newTracer(spec.Run)
	}
	root := tr.begin(spec.Kind+".pass", spanRef{})
	start := time.Now()

	var reads []seq.Read
	var chunks [][]seq.Read
	cr := fastq.NewChunkReader(io.NopCloser(bytes.NewReader(data)), fastq.DefaultChunkSize)
	for {
		sp := tr.begin("fastq.decode", root)
		ch, err := cr.Next()
		tr.end(sp, map[string]int64{"reads": int64(len(ch))})
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return passResult{}, err
		}
		chunks = append(chunks, ch)
		reads = append(reads, ch...)
	}
	// Parameters are derived as repro reptile derives them: k from the
	// genome length, Qc from a leading sample of the reads.
	p := reptile.DefaultParams(reads[:min(len(reads), engine.SampleReads)], spec.GenomeLen)
	p.Build = kspectrum.BuildOptions{Workers: spec.Workers}
	p.MemoryBudget = spec.MemoryBudget
	p.TempDir = spec.TempDir
	b, err := reptile.NewBuilder(p)
	if err != nil {
		return passResult{}, err
	}
	defer b.Close()
	for _, ch := range chunks {
		sp := tr.begin("reptile.phase1_add", root)
		b.Add(ch)
		tr.end(sp, map[string]int64{"reads": int64(len(ch))})
	}
	sp := tr.begin("reptile.phase1_finish", root)
	c, err := b.Finish()
	if err != nil {
		return passResult{}, err
	}
	tr.end(sp, map[string]int64{"kmers": int64(c.Spec.Size()), "tiles": int64(c.Tiles.Size())})

	var out []byte
	var corrected []seq.Read
	switch spec.Kind {
	case "batch":
		sp = tr.begin("reptile.correct", root)
		corrected, err = c.CorrectAllCtx(context.Background(), reads, spec.Workers)
		if err != nil {
			return passResult{}, err
		}
		tr.end(sp, map[string]int64{"reads": int64(len(reads))})
		sp = tr.begin("fastq.encode", root)
		var buf bytes.Buffer
		if err := fastq.Write(&buf, corrected); err != nil {
			return passResult{}, err
		}
		out = buf.Bytes()
		tr.end(sp, map[string]int64{"bytes": int64(len(out))})
	case "build":
		sp = tr.begin("kspectrum.store_write", root)
		if err := kspectrum.WriteSpectrumFile(spec.Out, c.Spec); err != nil {
			return passResult{}, err
		}
		tr.end(sp, nil)
	default:
		return passResult{}, fmt.Errorf("unknown pass kind %q", spec.Kind)
	}
	wall := time.Since(start)
	tr.end(root, map[string]int64{"reads": int64(len(reads))})

	if out != nil {
		if err := os.WriteFile(spec.Out, out, 0o644); err != nil {
			return passResult{}, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return passResult{}, err
	}
	res := passResult{WallS: wall.Seconds(), PeakRSSMB: rss, Reads: len(reads)}
	if tr == nil {
		return res, nil
	}
	res.Layers = map[string]float64{
		"fastq.decode_s":          tr.total("fastq.decode"),
		"fastq.encode_s":          tr.total("fastq.encode"),
		"reptile.phase1_add_s":    tr.total("reptile.phase1_add"),
		"reptile.phase1_finish_s": tr.total("reptile.phase1_finish"),
		"reptile.correct_s":       tr.total("reptile.correct"),
		"kspectrum.store_write_s": tr.total("kspectrum.store_write"),
	}
	if corrected != nil {
		changed := engine.CountChanged(reads, corrected)
		res.Layers["reptile.changed_reads"] = float64(changed)
		res.Layers["reptile.changed_bases"] = float64(engine.CountChangedBases(reads, corrected))
		res.Layers["reptile.changed_frac"] = float64(changed) / float64(len(reads))
	}
	if err := driveLayers(tr, spec, p, chunks, res.Layers); err != nil {
		return passResult{}, err
	}
	res.Epoch = tr.epoch.UnixNano()
	res.Spans = tr.snapshot()
	return res, nil
}

// driveLayers times the kspectrum layers directly on the pass's reads,
// which carry no ambiguous bases and so equal the reads Reptile
// prepares: the spectrum builder the pass used (in memory for batch,
// out of core with the same budget for build), the tile count and the
// neighbor index; for build also the store's size and its opening.
func driveLayers(tr *tracer, spec passSpec, p reptile.Params, chunks [][]seq.Read, layers map[string]float64) error {
	drive := tr.begin("layers", spanRef{})
	defer tr.end(drive, nil)

	var built *kspectrum.Spectrum
	if spec.MemoryBudget > 0 {
		st, err := kspectrum.NewStreamBuilder(p.K, true, kspectrum.StreamOptions{
			Build: p.Build, MemoryBudget: spec.MemoryBudget, TempDir: spec.TempDir,
		})
		if err != nil {
			return err
		}
		sp := tr.begin("kspectrum.count", drive)
		for _, ch := range chunks {
			st.Add(ch)
		}
		tr.end(sp, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp = tr.begin("kspectrum.merge", drive)
		built, err = st.Build()
		tr.end(sp, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		stats := st.Stats()
		layers["kspectrum.count_s"] = tr.total("kspectrum.count")
		layers["kspectrum.merge_s"] = tr.total("kspectrum.merge")
		layers["kspectrum.merge_allocs"] = float64(after.Mallocs - before.Mallocs)
		layers["kspectrum.spill_runs"] = float64(stats.SpilledRuns)
		layers["kspectrum.spilled_bytes"] = float64(stats.SpilledBytes)
	} else {
		sb, err := kspectrum.NewSpectrumBuilder(p.K, true, p.Build)
		if err != nil {
			return err
		}
		sp := tr.begin("kspectrum.count", drive)
		for _, ch := range chunks {
			sb.Add(ch)
		}
		built = sb.Build()
		tr.end(sp, nil)
		layers["kspectrum.count_s"] = tr.total("kspectrum.count")
	}
	layers["kspectrum.kmers"] = float64(built.Size())

	ts, err := kspectrum.CountTiles(nil, p.K, p.Overlap, p.Qc)
	if err != nil {
		return err
	}
	sp := tr.begin("kspectrum.tiles", drive)
	for _, ch := range chunks {
		ts.Add(ch)
	}
	tr.end(sp, map[string]int64{"tiles": int64(ts.Size())})
	layers["kspectrum.tiles_s"] = tr.total("kspectrum.tiles")
	layers["kspectrum.tiles"] = float64(ts.Size())

	sp = tr.begin("kspectrum.neighbor_index", drive)
	if _, err := kspectrum.NewNeighborIndex(built, p.D, p.C); err != nil {
		return err
	}
	tr.end(sp, nil)
	layers["kspectrum.neighbor_index_s"] = tr.total("kspectrum.neighbor_index")

	if spec.Kind == "build" {
		fi, err := os.Stat(spec.Out)
		if err != nil {
			return err
		}
		layers["kspectrum.store_bytes"] = float64(fi.Size())
		sp = tr.begin("kspectrum.store_open", drive)
		m, err := kspectrum.OpenMapped(spec.Out)
		tr.end(sp, nil)
		if err != nil {
			return err
		}
		layers["kspectrum.store_open_s"] = tr.total("kspectrum.store_open")
		if err := m.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runChild runs one pass in a fresh process.
func (r *run) runChild(ctx context.Context, spec passSpec) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return passResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe, childArg, string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return passResult{}, fmt.Errorf("%s pass: %w", spec.Kind, err)
	}
	var res passResult
	if err := json.Unmarshal(out, &res); err != nil {
		return passResult{}, fmt.Errorf("%s pass output: %w", spec.Kind, err)
	}
	return res, nil
}

// passes runs untraced passes until the run's time is spent (at least
// MinPasses), checks each pass's output, and reports the end-to-end
// metrics. In a traced run it alternates untraced and traced passes and
// reports per-layer metrics instead.
func (r *run) passes(spec passSpec, reads int, check func() error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var walls, rss, tracedWalls []float64
	var layers []map[string]float64
	deadline := time.Now().Add(r.phase(1, 0))
	for i := 0; ; i++ {
		// Passes alternate untraced and traced in a traced run. The
		// count is of passes tried, so failing passes still end the run.
		traced := r.traced && i%2 == 1
		enough := i >= r.sc.MinPasses
		if r.traced {
			enough = i >= 2
		}
		if enough && time.Now().After(deadline) {
			break
		}
		s := spec
		s.Trace = traced
		s.Run = fmt.Sprintf("%s-seed%d-pass%d", r.workload, r.seed, i)
		root := r.tr().begin(spec.Kind+".child", spanRef{})
		res, err := r.runChild(ctx, s)
		r.tr().end(root, nil)
		if err != nil {
			r.op(err)
			if ctx.Err() != nil {
				return err
			}
			continue
		}
		// A pass whose output fails the check is a failed operation,
		// which makes the run incorrect; its timing is still reported.
		if res.Reads != reads {
			err = fmt.Errorf("pass decoded %d reads, want %d", res.Reads, reads)
		} else {
			err = check()
		}
		r.op(err)
		if traced {
			tracedWalls = append(tracedWalls, res.WallS)
			layers = append(layers, res.Layers)
			r.tr().adopt(res.Spans, res.Epoch, root)
		} else {
			walls = append(walls, res.WallS)
			rss = append(rss, res.PeakRSSMB)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("every %s pass failed", spec.Kind)
	}
	if !r.traced {
		r.set("reads_per_s", float64(reads)/median(walls))
		r.set("p50_ms", 1000*median(walls))
		r.set("peak_rss_mb", median(rss))
		r.logf("%d passes: wall %v s, peak RSS %v MB", len(walls), fmtList(walls), fmtList(rss))
		return nil
	}
	if len(layers) == 0 {
		return fmt.Errorf("every traced %s pass failed", spec.Kind)
	}
	for name := range layers[0] {
		var vs []float64
		for _, l := range layers {
			vs = append(vs, l[name])
		}
		r.set(name, median(vs))
	}
	untraced := median(walls)
	r.set("trace.overhead_pct", 100*(median(tracedWalls)-untraced)/untraced)
	blocking := []string{"fastq.decode_s", "reptile.phase1_add_s", "reptile.phase1_finish_s",
		"reptile.correct_s", "fastq.encode_s", "kspectrum.store_write_s"}
	var acc float64
	for _, n := range blocking {
		acc += r.metrics[n]
	}
	r.set("trace.accounted_pct", 100*acc/untraced)
	r.logf("untraced wall %v s, traced wall %v s; the blocking-path layers account for %.1f%% of the untraced wall time, %.1f%% unaccounted",
		fmtList(walls), fmtList(tracedWalls), 100*acc/untraced, 100-100*acc/untraced)
	return r.tr().report(r.out, r.root, r.workload, r.seed)
}

func runBatch(r *run) error {
	c, err := r.setupCorpus(r.sc.BatchGenome, r.sc.BatchCover)
	if err != nil {
		return err
	}
	spec := passSpec{
		Kind: "batch", In: filepath.Join(r.dir, "batch.fastq"), Out: filepath.Join(r.dir, "batch.out.fastq"),
		GenomeLen: c.genomeLen, Workers: r.nproc, TempDir: r.dir,
	}
	if err := os.WriteFile(spec.In, c.fq, 0o644); err != nil {
		return err
	}
	if r.traced {
		r.trp.Store(newTracer(fmt.Sprintf("batch-seed%d", r.seed)))
	}
	var first []byte
	check := func() error {
		out, err := os.ReadFile(spec.Out)
		if err != nil {
			return err
		}
		if first != nil {
			if !bytes.Equal(out, first) {
				return fmt.Errorf("batch output differs from the first pass's")
			}
			return nil
		}
		corrected, err := fastq.DecodeChunk(bytes.NewReader(out), 0)
		if err != nil {
			return fmt.Errorf("decoding batch output: %w", err)
		}
		if err := checkShape(c.reads, corrected); err != nil {
			return fmt.Errorf("batch output: %w", err)
		}
		gain, err := r.gainPct(c, corrected)
		if err != nil {
			return err
		}
		if gain <= 0 {
			return fmt.Errorf("batch correction has gain %.2f%%: it breaks more bases than it fixes", gain)
		}
		r.set("reptile.gain_pct", gain)
		r.logf("batch gain %.3f%% against the simulation truth", gain)
		first = out
		return nil
	}
	return r.passes(spec, len(c.reads), check)
}

func runBuild(r *run) error {
	c, err := r.setupCorpus(r.sc.BuildGenome, r.sc.BuildCover)
	if err != nil {
		return err
	}
	k := reptile.DefaultParams(nil, c.genomeLen).K
	ref, err := kspectrum.Build(c.reads, k, true)
	if err != nil {
		return err
	}
	// A quarter of the footprint an in-memory counter of every distinct
	// kmer reaches, so the build spills dozens of runs and merges them.
	budget := kspectrum.ApproxAccumulatorBytes(ref.Size()) / 4
	spec := passSpec{
		Kind: "build", In: filepath.Join(r.dir, "build.fastq"), Out: filepath.Join(r.dir, "build.kspc"),
		GenomeLen: c.genomeLen, Workers: r.nproc, MemoryBudget: budget, TempDir: r.dir,
	}
	if err := os.WriteFile(spec.In, c.fq, 0o644); err != nil {
		return err
	}
	r.logf("build: k=%d, %d distinct kmers, memory budget %d bytes", k, ref.Size(), budget)
	if r.traced {
		r.trp.Store(newTracer(fmt.Sprintf("build-seed%d", r.seed)))
	}
	check := func() error {
		defer os.Remove(spec.Out)
		m, err := kspectrum.OpenMapped(spec.Out)
		if err != nil {
			return fmt.Errorf("reopening the store: %w", err)
		}
		defer m.Close()
		if err := m.Verify(); err != nil {
			return fmt.Errorf("store verification: %w", err)
		}
		if m.K != ref.K || !slices.Equal(m.Kmers, ref.Kmers) || !slices.Equal(m.Counts, ref.Counts) {
			return fmt.Errorf("stored spectrum (%d kmers) differs from the in-memory build (%d kmers)", m.Size(), ref.Size())
		}
		return nil
	}
	return r.passes(spec, len(c.reads), check)
}

func fmtList(xs []float64) string {
	b, _ := json.Marshal(roundAll(xs))
	return string(b)
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}
