package reptile

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// EngineName is Reptile's registry key.
const EngineName = "reptile"

func init() { engine.Register(reptileEngine{}) }

// extConfig is the engine-specific payload reptile's functional options
// tuck into an engine.Run. A non-zero params.K means the caller supplied
// a fully-resolved parameter block (the facade's CorrectOptions.Reptile
// semantics: used as-is); otherwise parameters are data-derived and the
// individual overrides (d, overlap) are applied in the CLI's historical
// order, preserving byte-identity with both front ends.
type extConfig struct {
	params     Params
	d          int
	dSet       bool
	overlap    int
	overlapSet bool
}

func extOf(r *engine.Run) *extConfig {
	if v, ok := r.Ext(EngineName); ok {
		return v.(*extConfig)
	}
	c := &extConfig{}
	r.SetExt(EngineName, c)
	return c
}

// WithParams supplies a complete Reptile parameter block. A non-zero
// p.K means the block is used as-is (zero thresholds still take
// data-derived defaults in Finish); with p.K == 0 only p.Build survives
// the defaults derivation, mirroring the historical facade.
func WithParams(p Params) engine.Option {
	return func(r *engine.Run) { extOf(r).params = p }
}

// WithD sets the per-constituent-kmer Hamming budget d, applied after the
// data-derived defaults exactly like the CLI's -d flag (C is bumped to
// d+2 only when the derived C would not exceed d).
func WithD(d int) engine.Option {
	return func(r *engine.Run) { e := extOf(r); e.d, e.dSet = d, true }
}

// WithOverlap sets the tile overlap l, applied after the data-derived
// defaults.
func WithOverlap(l int) engine.Option {
	return func(r *engine.Run) { e := extOf(r); e.overlap, e.overlapSet = l, true }
}

// reptileEngine adapts Reptile to the pluggable engine contract.
type reptileEngine struct{}

func (reptileEngine) Name() string { return EngineName }

func (reptileEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{
		Streaming:     true,
		SpectrumReuse: true,
		// A tile packs 2k - overlap bases into one word, so served
		// spectra are bounded at half the packable kmer length.
		MaxSpectrumK: seq.MaxK / 2,
		// The service path queries only through the SpectrumBackend /
		// NeighborSource seam, so a remote sharded spectrum serves.
		RemoteSpectrum: true,
	}
}

// explicitK is the caller's explicitly-requested kmer length: a full
// parameter block's K wins, then the run-level K, else 0 (data-derived).
func (e *extConfig) explicitK(run *engine.Run) int {
	if e.params.K != 0 {
		return e.params.K
	}
	return run.K
}

// resolveParams finalizes the parameter block from the run, the sampled
// reads, and the (possibly preloaded) spectrum. It reproduces both
// historical resolution orders: a caller-supplied block with K set is
// used as-is (facade semantics), otherwise data-derived defaults are
// computed from the sample and the K/spectrum/d/overlap overrides apply
// in the CLI's order.
func resolveParams(sample []seq.Read, run *engine.Run, spec *kspectrum.Spectrum) Params {
	e := extOf(run)
	p := e.params
	explicitK := p.K != 0
	if !explicitK {
		build := p.Build // survives the defaults swap
		p = DefaultParams(sample, run.GenomeLen)
		p.Build = build
		if run.K != 0 {
			p.K = run.K
			p.C = min(p.K, p.D+4)
			explicitK = true
		}
	}
	if spec != nil {
		if !explicitK && p.K != spec.K {
			p.K = spec.K
			p.C = min(p.K, p.D+4)
		}
		p.Spectrum = spec
	}
	if e.dSet {
		p.D = e.d
		if p.C <= p.D {
			p.C = p.D + 2
		}
	}
	if e.overlapSet {
		p.Overlap = e.overlap
	}
	if p.Build == (kspectrum.BuildOptions{}) {
		p.Build = kspectrum.BuildOptions{Workers: run.Workers, Shards: run.Shards}
	}
	if p.MemoryBudget == 0 {
		p.MemoryBudget = run.MemoryBudget
	}
	if p.TempDir == "" {
		p.TempDir = run.TempDir
	}
	if p.CheckpointDir == "" {
		p.CheckpointDir = run.CheckpointDir
		p.Resume = run.Resume
		p.CheckpointEvery = run.CheckpointEvery
	}
	return p
}

// summary renders the resolved parameters and Phase-1 products for the
// CLI status line.
func (c *Corrector) summary() string {
	size := 0
	if c.Spec != nil {
		size = c.Spec.Size()
	} else if c.backend != nil {
		size = c.backend.Len()
	}
	return fmt.Sprintf("k=%d d=%d Cg=%d Cm=%d Qc=%d; spectrum %d kmers, %d tiles",
		c.P.K, c.P.D, c.P.Cg, c.P.Cm, c.P.Qc, size, c.Tiles.Size())
}

func (reptileEngine) Correct(ctx context.Context, reads []seq.Read, run *engine.Run) ([]seq.Read, *engine.Result, error) {
	start := time.Now()
	spec, err := run.ResolveSpectrum(extOf(run).explicitK(run))
	if err != nil {
		return nil, nil, err
	}
	p := resolveParams(reads, run, spec)
	c, err := New(reads, p)
	if err != nil {
		return nil, nil, err
	}
	out, err := c.CorrectAllCtx(ctx, reads, run.Workers)
	if err != nil {
		return nil, nil, err
	}
	if err := run.SaveSpectrum(c.Spec); err != nil {
		return nil, nil, err
	}
	return out, &engine.Result{
		Engine:   EngineName,
		Duration: time.Since(start),
		Spectrum: c.Spec,
		Summary:  c.summary(),
	}, nil
}

func (reptileEngine) CorrectStream(ctx context.Context, open engine.SourceOpener, sink engine.Sink, run *engine.Run) (*engine.Result, error) {
	start := time.Now()
	e := extOf(run)
	spec, err := run.ResolveSpectrum(e.explicitK(run))
	if err != nil {
		return nil, err
	}
	var sample []seq.Read
	if e.params.K == 0 {
		// Data-dependent defaults (Qc, default k) come from a bounded
		// leading sample of a fresh stream.
		if sample, err = engine.Sample(ctx, open); err != nil {
			return nil, err
		}
	}
	p := resolveParams(sample, run, spec)
	res := &engine.Result{Engine: EngineName}
	emit := func(orig, corrected []seq.Read) error {
		res.Reads += len(orig)
		res.Changed += engine.CountChanged(orig, corrected)
		return sink.WriteChunk(orig, corrected)
	}
	c, err := correctStreamCtx(ctx, seq.SourceOpener(open), emit, p, run.Workers)
	if err != nil {
		return nil, err
	}
	if err := run.SaveSpectrum(c.Spec); err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	res.Spectrum = c.Spec
	res.Summary = c.summary()
	return res, nil
}

// NewService implements engine.Servicer: the shared-spectrum,
// request-independent correction service behind the kserve daemon. The
// run must carry a spectrum (WithSpectrum or WithSpectrumPath); D and
// overlap overrides apply, everything request-derived (Qc, Cg, Cm) is
// computed per chunk.
func (reptileEngine) NewService(run *engine.Run) (engine.ChunkCorrector, error) {
	e := extOf(run)
	spec, err := run.ResolveSpectrum(e.explicitK(run))
	if err != nil {
		return nil, err
	}
	p := e.params
	if e.dSet {
		p.D = e.d
	}
	if e.overlapSet {
		p.Overlap = e.overlap
	}
	if spec == nil && run.Backend != nil {
		// Distributed serving: the spectrum lives behind the backend. The
		// backend must also answer neighborhoods (RemoteSpectrum in
		// internal/remote does; so does any kspectrum.NeighborSource).
		neigh, ok := run.Backend.(kspectrum.NeighborSource)
		if !ok {
			return nil, fmt.Errorf("reptile: spectrum backend %T cannot answer neighborhood queries", run.Backend)
		}
		svc, err := NewServiceBackend(run.Backend, neigh, p)
		if err != nil {
			return nil, err
		}
		return chunkService{svc: svc}, nil
	}
	if spec == nil {
		return nil, fmt.Errorf("reptile: service needs a spectrum")
	}
	svc, err := NewService(spec, p)
	if err != nil {
		return nil, err
	}
	return chunkService{svc: svc}, nil
}

// chunkService adapts Service to the engine.ChunkCorrector contract.
type chunkService struct{ svc *Service }

func (s chunkService) CorrectChunk(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
	return s.svc.CorrectReads(ctx, reads, workers)
}
