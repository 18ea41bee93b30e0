package kspectrum

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/seq"
)

// neighborProbes returns spectrum kmers plus copies with one to three
// random substitutions, so probes land both on and between spectrum kmers.
func neighborProbes(spec *Spectrum, n int, rng *rand.Rand) []seq.Kmer {
	var probes []seq.Kmer
	for i := 0; i < n; i++ {
		km := spec.Kmers[rng.Intn(len(spec.Kmers))]
		probes = append(probes, km)
		mut := km
		for s := rng.Intn(3) + 1; s > 0; s-- {
			pos := rng.Intn(spec.K)
			mut = mut.WithBase(pos, spec.K, seq.Base((int(mut.At(pos, spec.K))+1+rng.Intn(3))%4))
		}
		probes = append(probes, mut)
	}
	return probes
}

// TestNeighborIndexConformance checks the bucket-addressed replicas
// against BruteForceNeighbors for k ∈ {4, 10, 16, 31} × d ∈ {1, 2, 3},
// through an eager and a lazy index over a copied and a mapped spectrum,
// by index (Neighbors) and by value (NeighborKmers). Replica 0 of every
// index masks chunk 0, the top chunk, whose key then starts at the bits
// below it.
func TestNeighborIndexConformance(t *testing.T) {
	reads := randomReads(t, 800)
	for _, k := range []int{4, 10, 16, 31} {
		built, err := Build(reads, k, true)
		if err != nil {
			t.Fatal(err)
		}
		path := writeStoreFile(t, encodeSpectrum(t, built))
		copied, err := ReadSpectrumFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spectra := map[string]*Spectrum{"copied": copied}
		if MmapSupported {
			mapped, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mapped.Close() })
			spectra["mapped"] = mapped
		}
		for _, d := range []int{1, 2, 3} {
			c := min(k, d+4)
			nProbes := 40
			if k == 31 && d == 3 {
				nProbes = 12 // brute force probes C(31,3)·27 kmers each
			}
			probes := neighborProbes(built, nProbes, rand.New(rand.NewSource(int64(k*10+d))))
			want := make([][]int32, len(probes))
			nonTrivial := 0
			for i, km := range probes {
				want[i] = BruteForceNeighbors(built, km, d)
				if len(want[i]) > 1 {
					nonTrivial++
				}
			}
			if nonTrivial == 0 {
				t.Fatalf("k=%d d=%d: no probe has more than one neighbor", k, d)
			}
			for name, spec := range spectra {
				for _, lazy := range []bool{false, true} {
					label := fmt.Sprintf("k=%d d=%d %s lazy=%v", k, d, name, lazy)
					newIndex := NewNeighborIndex
					if lazy {
						newIndex = NewNeighborIndexLazy
					}
					ni, err := newIndex(spec, d, c)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if top := seq.Kmer(3) << uint(2*(k-1)); ni.masks[0]&top != top {
						t.Fatalf("%s: replica 0 does not mask the top chunk", label)
					}
					for i, km := range probes {
						got := ni.Neighbors(km, nil)
						if !slices.Equal(got, want[i]) && !(len(got) == 0 && len(want[i]) == 0) {
							t.Fatalf("%s: Neighbors(%v) = %v, brute force %v", label, km, got, want[i])
						}
						kms := ni.NeighborKmers(km, nil)
						if len(kms) != len(want[i]) {
							t.Fatalf("%s: NeighborKmers(%v) has %d kmers, brute force %d", label, km, len(kms), len(want[i]))
						}
						for j, idx := range want[i] {
							if kms[j] != built.Kmers[idx] {
								t.Fatalf("%s: NeighborKmers(%v)[%d] = %v want %v", label, km, j, kms[j], built.Kmers[idx])
							}
						}
					}
				}
			}
		}
	}
}

// TestNeighborIndexBucketTable pins the offset table's geometry: at most
// one bucket per four kmers (plus the end sentinel), offsets ascending and
// ending at the spectrum size, and every index placed in its own bucket,
// ascending within it.
func TestNeighborIndexBucketTable(t *testing.T) {
	spec, err := Build(randomReads(t, 800), 12, true)
	if err != nil {
		t.Fatal(err)
	}
	ni, err := NewNeighborIndex(spec, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := len(spec.Kmers)
	for r := range ni.replicas {
		rp := &ni.replicas[r]
		if buckets := len(rp.off) - 1; buckets > max(1, n/4) {
			t.Fatalf("replica %d: %d buckets for %d kmers", r, buckets, n)
		}
		if rp.off[0] != 0 || int(rp.off[len(rp.off)-1]) != n || len(rp.idx) != n {
			t.Fatalf("replica %d: offsets span [%d, %d] over %d indices, want [0, %d]",
				r, rp.off[0], rp.off[len(rp.off)-1], len(rp.idx), n)
		}
		for b := 0; b+1 < len(rp.off); b++ {
			bucket := rp.idx[rp.off[b]:rp.off[b+1]]
			for j, i := range bucket {
				if got := rp.key(spec.Kmers[i]) >> rp.shift; got != uint64(b) {
					t.Fatalf("replica %d: index %d sits in bucket %d, belongs in %d", r, i, b, got)
				}
				if j > 0 && bucket[j-1] >= i {
					t.Fatalf("replica %d bucket %d not ascending", r, b)
				}
			}
		}
	}
}

// FuzzNeighborIndex builds a small spectrum from fuzzed kmers and checks
// one fuzzed probe against BruteForceNeighbors. The input's first four
// bytes choose k (1..16), d (0..3), c and a count of extra kmers; each following
// 4-byte word is a kmer, the first of them the probe. The extra kmers are
// one- to three-base mutants of the probe, drawn from a generator seeded
// by the input, so the spectrum is dense around the probe and large
// enough to spread over several buckets.
func FuzzNeighborIndex(f *testing.F) {
	f.Add([]byte{4, 1, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0})
	f.Add([]byte{10, 2, 6, 40, 0xff, 0xff, 0x0f, 0, 0xfe, 0xff, 0x0f, 0, 0x12, 0x34, 0x05, 0})
	f.Add([]byte{16, 3, 7, 120, 1, 2, 3, 4, 1, 2, 3, 5, 9, 9, 9, 9, 1, 2, 7, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		k := int(data[0])%16 + 1
		d := int(data[1]) % min(k, 4) // brute force is exponential in d
		c := d + 1 + int(data[2])%(k-d)
		extra := int(data[3]) % 128
		mask := uint64(1)<<(2*uint(k)) - 1
		var kmers []seq.Kmer
		var seed int64
		for rest := data[4:]; len(rest) >= 4; rest = rest[4:] {
			w := binary.LittleEndian.Uint32(rest)
			kmers = append(kmers, seq.Kmer(uint64(w)&mask))
			seed = seed*31 + int64(w)
		}
		probe := kmers[0]
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < extra; i++ {
			mut := probe
			for s := rng.Intn(3) + 1; s > 0; s-- {
				mut = mut.WithBase(rng.Intn(k), k, seq.Base(rng.Intn(4)))
			}
			kmers = append(kmers, mut)
		}
		spectrum := slices.Clone(kmers[1:])
		slices.Sort(spectrum)
		spectrum = slices.Compact(spectrum)
		spec := &Spectrum{K: k, Kmers: spectrum, Counts: make([]uint32, len(spectrum))}
		for _, lazy := range []bool{false, true} {
			newIndex := NewNeighborIndex
			if lazy {
				newIndex = NewNeighborIndexLazy
			}
			ni, err := newIndex(spec, d, c)
			if err != nil {
				t.Fatalf("k=%d d=%d c=%d: %v", k, d, c, err)
			}
			got := ni.Neighbors(probe, nil)
			want := BruteForceNeighbors(spec, probe, d)
			if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("k=%d d=%d c=%d lazy=%v probe %v over %v: Neighbors = %v, brute force %v",
					k, d, c, lazy, probe, spectrum, got, want)
			}
		}
	})
}
