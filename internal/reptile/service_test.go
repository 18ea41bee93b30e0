package reptile

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

func serviceFixture(t *testing.T) ([]seq.Read, *kspectrum.Spectrum) {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 8000, ReadLen: 36, Coverage: 30,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	spec, err := kspectrum.Build(reads, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	return reads, spec
}

// TestServiceMatchesBatchOnFullCorpus: when the request chunk is the whole
// corpus, the service (preloaded spectrum + shared index, chunk-derived
// tiles and thresholds) must reproduce the batch corrector byte for byte —
// the same inputs flow into the same Algorithm 1/2.
func TestServiceMatchesBatchOnFullCorpus(t *testing.T) {
	reads, spec := serviceFixture(t)

	svc, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, c, err := svc.CorrectChunk(reads, 2)
	if err != nil {
		t.Fatal(err)
	}

	p := DefaultParams(reads, 8000)
	p.K = spec.K
	p.C = min(p.K, p.D+4)
	batch, err := New(reads, p)
	if err != nil {
		t.Fatal(err)
	}
	want := batch.CorrectAll(reads, 1)

	if c.P.Cg != batch.P.Cg || c.P.Cm != batch.P.Cm || c.P.Qc != batch.P.Qc {
		t.Fatalf("derived thresholds diverge: service (Cg=%d Cm=%d Qc=%d) batch (Cg=%d Cm=%d Qc=%d)",
			c.P.Cg, c.P.Cm, c.P.Qc, batch.P.Cg, batch.P.Cm, batch.P.Qc)
	}
	changed := 0
	for i := range want {
		if !bytes.Equal(got[i].Seq, want[i].Seq) {
			t.Fatalf("read %d diverges from batch corrector", i)
		}
		if !bytes.Equal(got[i].Seq, reads[i].Seq) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("service corrected nothing on a full-corpus chunk")
	}
}

// TestServicePairsQmWithExplicitQc: an explicit Qc with Qm left zero must
// not silently disable applyIfLowQuality's acceptance condition.
func TestServicePairsQmWithExplicitQc(t *testing.T) {
	_, spec := serviceFixture(t)
	svc, err := NewService(spec, Params{Qc: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Params().Qm; got != 35 {
		t.Errorf("Qm = %d want 35 (Qc+15)", got)
	}
}

// TestServiceCorrectReadsReusesTiles: CorrectReads, which counts every
// chunk into a tile set a finished request handed back, answers exactly
// as CorrectChunkCtx with its fresh set — chunk after chunk of varying
// size and quality threshold, and from concurrent callers.
func TestServiceCorrectReadsReusesTiles(t *testing.T) {
	reads, spec := serviceFixture(t)
	svc, err := NewService(spec, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]seq.Read
	for lo, size := 0, 500; lo < len(reads); lo, size = lo+size, size*3%1300+40 {
		chunks = append(chunks, reads[lo:min(lo+size, len(reads))])
	}
	// The whole corpus is a chunk with enough tile support to correct.
	chunks = append(chunks, reads)
	want := make([][]seq.Read, len(chunks))
	for i, ch := range chunks {
		if want[i], _, err = svc.CorrectChunkCtx(context.Background(), ch, 1); err != nil {
			t.Fatal(err)
		}
	}
	if changed := engine.CountChanged(reads, want[len(want)-1]); changed == 0 {
		t.Fatal("the whole-corpus chunk corrected nothing; the comparison would be vacuous")
	}
	check := func(i int, got []seq.Read) error {
		for j := range got {
			if got[j].ID != want[i][j].ID || !bytes.Equal(got[j].Seq, want[i][j].Seq) || !bytes.Equal(got[j].Qual, want[i][j].Qual) {
				return fmt.Errorf("chunk %d read %d: CorrectReads %s, CorrectChunkCtx %s", i, j, got[j].Seq, want[i][j].Seq)
			}
		}
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		for i, ch := range chunks {
			got, err := svc.CorrectReads(context.Background(), ch, 1+i%2)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(i, got); err != nil {
				t.Fatal(err)
			}
		}
	}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := g; i < len(chunks); i += 2 {
				got, err := svc.CorrectReads(context.Background(), chunks[i], 1)
				if err == nil {
					err = check(i, got)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := len(svc.tiles.sets); n == 0 || n > pooledTileSets {
		t.Fatalf("the service keeps %d idle tile sets, want 1..%d", n, pooledTileSets)
	}
}
