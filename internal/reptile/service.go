package reptile

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// Service is the correction-as-a-service form of Reptile: one spectrum
// and one Hamming-neighborhood index, built once, shared read-only across
// many independent correction requests. Per request only the cheap,
// chunk-local state is computed — tile counts and the data-derived
// thresholds (Qc, Cg, Cm) over the request's reads — so a long-lived
// daemon (cmd/kserve) amortizes the expensive Phase-1 products across its
// whole lifetime.
//
// CorrectChunk is safe for concurrent use: the shared spectrum and index
// are never written after New, and everything else is request-local.
type Service struct {
	p    Params
	spec *kspectrum.Spectrum
	ni   *kspectrum.NeighborIndex

	// backend and neigh are the query seam handed to every per-request
	// Corrector. For a local service they wrap spec/ni; a distributed
	// service (NewServiceBackend) carries a remote pair and leaves
	// spec/ni nil.
	backend kspectrum.SpectrumBackend
	neigh   kspectrum.NeighborSource

	// tiles holds the tile sets of finished CorrectReads requests.
	tiles tilePool
}

// tilePool keeps the tile sets of finished requests for later ones, so a
// daemon in steady state counts each chunk into tables it already owns
// instead of growing fresh ones: a 500-read chunk's tables are about a
// megabyte, and allocating them per request multiplied the collector's
// cycles with the request rate.
type tilePool struct {
	mu   sync.Mutex
	sets []*kspectrum.TileSet
}

const (
	// pooledTileSets bounds how many idle sets a service keeps.
	pooledTileSets = 8
	// maxPooledTiles drops sets grown by a chunk of more than a few
	// thousand reads rather than holding their tables, up to 4 MB each,
	// for the service's lifetime.
	maxPooledTiles = 1 << 17
)

// get returns an idle set, or nil when there is none.
func (tp *tilePool) get() *kspectrum.TileSet {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	n := len(tp.sets)
	if n == 0 {
		return nil
	}
	ts := tp.sets[n-1]
	tp.sets[n-1] = nil
	tp.sets = tp.sets[:n-1]
	return ts
}

// put returns a set no request uses any more.
func (tp *tilePool) put(ts *kspectrum.TileSet) {
	if ts.Size() > maxPooledTiles {
		return
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if len(tp.sets) < pooledTileSets {
		tp.sets = append(tp.sets, ts)
	}
}

// NewService validates the parameters against the preloaded spectrum and
// builds the shared neighborhood index. A zero p.K adopts the spectrum's
// k; zero D/C/Cr take the package defaults. Parameters that are derived
// from read data when left zero (Qc, Cg, Cm) stay zero here and are
// derived per chunk instead.
func NewService(spec *kspectrum.Spectrum, p Params) (*Service, error) {
	if spec == nil {
		return nil, fmt.Errorf("reptile: service needs a spectrum")
	}
	if p.K == 0 {
		p.K = spec.K
	}
	if p.D == 0 {
		p.D = 1
	}
	if p.C == 0 {
		p.C = min(p.K, p.D+4)
	}
	if p.Cr == 0 {
		p.Cr = 2
	}
	if p.DefaultBase == 0 {
		p.DefaultBase = 'A'
	}
	if p.MaxNPerWindow == 0 {
		p.MaxNPerWindow = p.D
	}
	// An explicit Qc with Qm left zero would make applyIfLowQuality's
	// "quality below Qm" condition unsatisfiable and silently suppress
	// every correction; pair them like DefaultParams does.
	if p.Qc != 0 && p.Qm == 0 {
		p.Qm = p.Qc + 15
	}
	p.Spectrum = spec
	if err := p.validate(); err != nil {
		return nil, err
	}
	// A memory-mapped spectrum keeps service construction instant: the
	// replica builds (and the deferred whole-file check they trigger)
	// materialize on the first request that needs a neighborhood, not at
	// registration. Copied spectra keep the historical eager build, so a
	// daemon's first request pays no index-build latency.
	var ni *kspectrum.NeighborIndex
	var err error
	if spec.Mapped() {
		ni, err = kspectrum.NewNeighborIndexLazy(spec, p.D, p.C)
	} else {
		ni, err = kspectrum.NewNeighborIndex(spec, p.D, p.C)
	}
	if err != nil {
		return nil, err
	}
	return &Service{
		p: p, spec: spec, ni: ni,
		backend: kspectrum.Local(spec),
		neigh:   kspectrum.LocalNeighbors(spec, ni),
	}, nil
}

// NewServiceBackend is NewService over the pluggable query seam: the
// spectrum lives behind b (typically a remote shard router) and
// d-neighborhoods come from neigh, so the service holds no local columns
// at all. p.K must be zero (adopt the backend's k) or agree with it; the
// backend must answer for both strands — the corrector's
// reverse-complement pass depends on an RC-closed spectrum, and backends
// exposing a BothStrands() accessor are checked for it.
func NewServiceBackend(b kspectrum.SpectrumBackend, neigh kspectrum.NeighborSource, p Params) (*Service, error) {
	if b == nil || neigh == nil {
		return nil, fmt.Errorf("reptile: service backend needs a SpectrumBackend and a NeighborSource")
	}
	if spec := kspectrum.Unwrap(b); spec != nil {
		// A local backend keeps the richer local path (lazy NI choice,
		// full validation) — the seam costs nothing when the data is here.
		return NewService(spec, p)
	}
	if p.K == 0 {
		p.K = b.K()
	} else if p.K != b.K() {
		return nil, fmt.Errorf("reptile: params want k=%d but backend has k=%d", p.K, b.K())
	}
	if p.D == 0 {
		p.D = 1
	}
	if p.C == 0 {
		p.C = min(p.K, p.D+4)
	}
	if p.Cr == 0 {
		p.Cr = 2
	}
	if p.DefaultBase == 0 {
		p.DefaultBase = 'A'
	}
	if p.MaxNPerWindow == 0 {
		p.MaxNPerWindow = p.D
	}
	if p.Qc != 0 && p.Qm == 0 {
		p.Qm = p.Qc + 15
	}
	if bs, ok := b.(interface{ BothStrands() bool }); ok && !bs.BothStrands() {
		return nil, fmt.Errorf("reptile: backend spectrum was not built from both strands")
	}
	// validate() with Spectrum nil checks the scalar parameters only.
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Service{p: p, backend: b, neigh: neigh}, nil
}

// Params returns the service's resolved parameter block (request-derived
// fields still zero).
func (s *Service) Params() Params { return s.p }

// Spectrum returns the shared spectrum (nil for a backend-only service).
func (s *Service) Spectrum() *kspectrum.Spectrum { return s.spec }

// Backend returns the service's spectrum query backend.
func (s *Service) Backend() kspectrum.SpectrumBackend { return s.backend }

// CorrectChunk corrects one independent chunk of reads with `workers`
// goroutines and returns the corrected copies plus the fully-resolved
// corrector used (exposing the thresholds derived for this chunk). The
// input reads are not modified. Unlike the batch pipeline — where tile
// counts aggregate over the whole input — tile support here comes from
// the request chunk alone, the service trade-off that keeps requests
// independent.
func (s *Service) CorrectChunk(reads []seq.Read, workers int) ([]seq.Read, *Corrector, error) {
	return s.CorrectChunkCtx(context.Background(), reads, workers)
}

// CorrectChunkCtx is CorrectChunk under a context: a cancelled ctx drains
// the correction worker pool promptly and returns ctx.Err(), so a
// dropped request aborts its correction work.
func (s *Service) CorrectChunkCtx(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, *Corrector, error) {
	c, err := s.chunkCorrector(ctx, reads, nil)
	if err != nil {
		return nil, nil, err
	}
	out, err := c.CorrectAllCtx(ctx, reads, workers)
	if err != nil {
		return nil, nil, err
	}
	return out, c, nil
}

// CorrectReads is CorrectChunkCtx for callers that need only the
// corrected reads — a daemon's requests. Because no Corrector escapes,
// the chunk's tile set goes back to the service when the correction
// returns and a later request counts into the same tables. The output is
// identical to CorrectChunkCtx's.
func (s *Service) CorrectReads(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
	c, err := s.chunkCorrector(ctx, reads, s.tiles.get())
	if err != nil {
		return nil, err
	}
	// CorrectAllCtx has joined all of its workers when it returns, so
	// nothing reads the tiles after this.
	defer s.tiles.put(c.Tiles)
	return c.CorrectAllCtx(ctx, reads, workers)
}

// chunkCorrector resolves one chunk's Corrector: Qc, the chunk's frozen
// tile counts and the thresholds derived from them, over the shared
// spectrum and the service's query seam bound to ctx. The tiles are
// counted into reuse, emptied first, when it is not nil; otherwise into
// a new set.
func (s *Service) chunkCorrector(ctx context.Context, reads []seq.Read, reuse *kspectrum.TileSet) (*Corrector, error) {
	p := s.p
	if p.Qc == 0 {
		p.Qc = kspectrum.QualityQuantile(reads, 0.17)
		p.Qm = p.Qc + 15
	}
	// One request's tiles are counted serially into a single shard: the
	// daemon already runs requests side by side.
	tiles := reuse
	if tiles != nil {
		tiles.Reset(p.Qc)
	} else {
		var err error
		tiles, err = kspectrum.CountTiles(nil, p.K, p.Overlap, p.Qc, kspectrum.BuildOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
	}
	prepared := make([]seq.Read, len(reads))
	for i, r := range reads {
		prepared[i] = prepareRead(r, p)
	}
	tiles.Add(prepared)
	tiles.Freeze()
	cg, cm := deriveThresholds(tiles)
	if p.Cg == 0 {
		p.Cg = cg
	}
	if p.Cm == 0 {
		p.Cm = cm
	}
	c := &Corrector{P: p, Spec: s.spec, NI: s.ni, Tiles: tiles, backend: s.backend, neigh: s.neigh}
	// A remote backend's shard round trips must die with this request:
	// bind its queries (and the neighborhood seam, which for a remote
	// service is the same object) to ctx so the daemon's deadline and
	// client disconnects cancel in-flight fan-outs instead of letting
	// retries hold a correction slot long past cancellation.
	if cb, ok := s.backend.(kspectrum.ContextBinder); ok {
		c.backend = cb.BindContext(ctx)
	}
	if cb, ok := s.neigh.(kspectrum.ContextBinder); ok {
		if bn, ok := cb.BindContext(ctx).(kspectrum.NeighborSource); ok {
			c.neigh = bn
		}
	}
	return c, nil
}
