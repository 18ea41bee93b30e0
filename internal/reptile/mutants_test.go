package reptile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// overlapConsistent checks that the last l bases of ka equal the first l of
// kb — the constraint the reference enumeration applies to every pair.
func overlapConsistent(ka, kb seq.Kmer, k, l int) bool {
	suffix := ka & (seq.Kmer(1)<<(2*uint(l)) - 1)
	prefix := kb >> (2 * uint(k-l))
	return suffix == prefix
}

// referenceMutantTiles is the enumeration the kernel used before prefix
// ranges, kept as the oracle: query both neighborhoods N(a) and N(b),
// then probe the tile table for every overlap-consistent pair of
// N(a)×N(b) except (a, b) itself.
func referenceMutantTiles(c *Corrector, a, b seq.Kmer, d1, d2 int) ([]mutantTile, error) {
	p := c.P
	na, err := c.neigh.Neighborhood(a, d1, nil)
	if err != nil {
		return nil, err
	}
	nb, err := c.neigh.Neighborhood(b, d2, nil)
	if err != nil {
		return nil, err
	}
	var out []mutantTile
	for _, ka := range na {
		for _, kb := range nb {
			if ka == a && kb == b {
				continue
			}
			if p.Overlap > 0 && !overlapConsistent(ka, kb, p.K, p.Overlap) {
				continue
			}
			tc := c.Tiles.Get(c.Tiles.PackTile(ka, kb))
			if tc.Oc == 0 {
				continue
			}
			hd := seq.HammingKmer(a, ka, p.K) + seq.HammingKmer(b, kb, p.K)
			out = append(out, mutantTile{a: ka, b: kb, og: tc.Og, hd: hd})
		}
	}
	return out, nil
}

// checkMutantOracle runs mutantTiles and the reference enumeration on
// every tile of every read, both strands, at each leading-kmer radius
// the tiling walk uses (0 after a validated tile, 1 on a [D3a] retry,
// D otherwise), and fails on the first difference in candidates or
// their order. It returns how many candidates it compared and how many
// the spectrum-membership check rejected — tiles within reach whose
// second kmer the spectrum lacks.
func checkMutantOracle(t *testing.T, c *Corrector, reads []seq.Read) (compared, rejected int) {
	t.Helper()
	c.ensureQuerier()
	p := c.P
	k, step, tileLen := p.K, p.K-p.Overlap, c.Tiles.TileLen
	radii := slices.Compact([]int{0, min(1, p.D), p.D})
	var s scratch
	for _, r := range reads {
		for _, bases := range [][]byte{r.Seq, seq.ReverseComplement(r.Seq)} {
			for pos := 0; pos+tileLen <= len(bases); pos++ {
				a, okA := seq.Pack(bases[pos:], k)
				b, okB := seq.Pack(bases[pos+step:], k)
				if !okA || !okB {
					continue
				}
				for _, d1 := range radii {
					want, err := referenceMutantTiles(c, a, b, d1, p.D)
					if err != nil {
						t.Fatal(err)
					}
					got := c.mutantTiles(a, b, d1, p.D, &s)
					if s.err != nil {
						t.Fatal(s.err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("tile %s at %d (d1=%d): mutantTiles = %+v, reference %+v",
							bases[pos:pos+tileLen], pos, d1, got, want)
					}
					compared += len(got)
					rejected += len(s.kbs) - len(got)
				}
			}
		}
	}
	return compared, rejected
}

// mutantCorpus simulates the reads the oracle tests correct and a second,
// independent read set over the same genome whose spectrum serves as the
// foreign spectrum: it holds the genuine kmers but not the first set's
// error kmers, so tiles counted from the first set reach second kmers the
// spectrum lacks.
func mutantCorpus(t *testing.T) (reads, other []seq.Read) {
	t.Helper()
	genome, sim := buildTestData(t, 3000, 700, 36, 0.02, 71)
	rng := rand.New(rand.NewSource(72))
	otherSim, err := simulate.SimulateReads(genome, simulate.ReadSimConfig{
		N: 1500, Model: simulate.IlluminaModel(36, 0.005, simulate.EcoliBias),
		BothStrands: true, QualityNoise: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	reads = simulate.Reads(sim)
	for i := range reads {
		reads[i] = prepareRead(reads[i], defaultTestParams())
	}
	return reads, simulate.Reads(otherSim)
}

// oracleParams is the parameter block of one oracle case.
func oracleParams(d, overlap int) Params {
	p := defaultTestParams()
	p.K, p.D, p.Overlap = 11, d, overlap
	p.C = min(p.K, d+4)
	p.MaxNPerWindow = d
	return p
}

// TestMutantTilesMatchReference: for d ∈ {1, 2} × overlap ∈ {0, 3},
// against the reads' own spectrum and against a foreign one, the
// prefix-range enumeration returns exactly the reference N(a)×N(b)
// candidates in the same order on every tile of the corpus. The
// foreign spectrum must make the second-kmer membership check reject
// candidates, or that branch would go untested.
func TestMutantTilesMatchReference(t *testing.T) {
	reads, other := mutantCorpus(t)
	for _, d := range []int{1, 2} {
		for _, overlap := range []int{0, 3} {
			for _, foreign := range []bool{false, true} {
				name := fmt.Sprintf("d=%d/l=%d/foreign=%v", d, overlap, foreign)
				t.Run(name, func(t *testing.T) {
					p := oracleParams(d, overlap)
					if foreign {
						spec, err := kspectrum.Build(other, p.K, true)
						if err != nil {
							t.Fatal(err)
						}
						p.Spectrum = spec
					}
					c, err := New(reads, p)
					if err != nil {
						t.Fatal(err)
					}
					compared, rejected := checkMutantOracle(t, c, reads)
					t.Logf("%d candidates compared, %d rejected by spectrum membership", compared, rejected)
					if compared == 0 {
						t.Fatal("the corpus produced no mutant candidates")
					}
					if foreign && rejected == 0 {
						t.Fatal("the foreign spectrum rejected no candidate second kmer")
					}
					if !foreign && rejected != 0 {
						t.Fatalf("the reads' own spectrum rejected %d candidates", rejected)
					}
				})
			}
		}
	}
}

// readsDigest hashes corrected reads' bases and qualities.
func readsDigest(reads []seq.Read) string {
	h := sha256.New()
	for _, r := range reads {
		h.Write(r.Seq)
		h.Write([]byte{'\n'})
		h.Write(r.Qual)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCorrectionBytesMatchReferenceKernel pins whole-run output: the
// digests below were produced by the N(a)×N(b) kernel that
// referenceMutantTiles preserves, for batch correction and for the
// Service at 500-read chunks, with and without a tile overlap and at
// d = 2. The prefix-range kernel must reproduce them byte for byte.
func TestCorrectionBytesMatchReferenceKernel(t *testing.T) {
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 8000, ReadLen: 36, Coverage: 30,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	spec, err := kspectrum.Build(reads, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"batch/d=1/l=0":   "f8e7ecc68d55c173",
		"batch/d=1/l=3":   "a7ec635f6fd19ef0",
		"batch/d=2/l=0":   "a3eb217add26a6da",
		"service/d=1/l=0": "d75d60a675a9be65",
		"service/d=2/l=3": "ae7ab827e0fef922",
	}
	got := map[string]string{}
	for _, d := range []int{1, 2} {
		for _, overlap := range []int{0, 3} {
			name := fmt.Sprintf("batch/d=%d/l=%d", d, overlap)
			if _, ok := want[name]; !ok {
				continue
			}
			p := DefaultParams(reads, 8000)
			p.K, p.D, p.Overlap = 11, d, overlap
			p.C = min(p.K, d+4)
			p.MaxNPerWindow = d
			c, err := New(reads, p)
			if err != nil {
				t.Fatal(err)
			}
			got[name] = readsDigest(c.CorrectAll(reads, 2))
		}
	}
	for _, cfg := range []struct{ d, overlap int }{{1, 0}, {2, 3}} {
		svc, err := NewService(spec, Params{D: cfg.d, Overlap: cfg.overlap})
		if err != nil {
			t.Fatal(err)
		}
		var out []seq.Read
		for lo := 0; lo < len(reads); lo += 500 {
			part, _, err := svc.CorrectChunk(reads[lo:min(lo+500, len(reads))], 2)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, part...)
		}
		got[fmt.Sprintf("service/d=%d/l=%d", cfg.d, cfg.overlap)] = readsDigest(out)
	}
	input := readsDigest(reads)
	for name, w := range want {
		if got[name] == input {
			t.Errorf("%s: correction changed nothing", name)
		}
		if got[name] != w {
			t.Errorf("%s: corrected reads digest %s, reference kernel %s", name, got[name], w)
		}
	}
}
