package reptile

import (
	"context"

	"repro/internal/seq"
)

// CheckMutantOracle exposes the mutant-enumeration oracle to the external
// test package, whose cluster tests need internal/cli and so cannot live
// in package reptile.
var CheckMutantOracle = checkMutantOracle

// ChunkCorrector resolves the Corrector a Service would correct reads
// with, without correcting them.
func (s *Service) ChunkCorrector(reads []seq.Read) (*Corrector, error) {
	return s.chunkCorrector(context.Background(), reads, nil)
}
