package kspectrum

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/seq"
)

// NeighborIndex retrieves the d-neighborhood N^d of any kmer within the
// spectrum: all spectrum kmers at Hamming distance at most d. It implements
// the replicated masked-sort strategy of §2.3: the k positions are divided
// into c chunks; for every choice of d chunks the spectrum is grouped by
// the kmer bits outside those chunks. Two kmers within Hamming distance d
// agree on at least c-d chunks, so they collide under at least one of the
// C(c,d) masks, making retrieval exact.
type NeighborIndex struct {
	spec     *Spectrum
	D        int
	C        int
	masks    []seq.Kmer // bitmask of the 2-bit positions zeroed per replica
	replicas []replica
	// lazy, when non-nil, defers each replica's permutation to its first
	// use (NewNeighborIndexLazy): replicas[r].idx and .off are then
	// written exactly once under lazy[r] and stay nil until the spectrum
	// passes Verify.
	lazy []sync.Once
}

// replica is one masked copy of the spectrum, bucket-addressed: a kmer's
// unmasked bits, packed together into a key, select its bucket by their
// top bits, and bucket b lists the spectrum indices idx[off[b]:off[b+1]]
// in ascending order. Kmers equal under the mask share a key and so a
// bucket; a lookup scans that one bucket instead of binary-searching the
// whole permutation.
type replica struct {
	runs  []bitRun // the unmasked bit runs, most significant first
	shift uint     // key >> shift is the bucket
	off   []uint32 // len = buckets+1
	idx   []int32  // len(spec.Kmers) spectrum indices, grouped by bucket
}

// bitRun is a contiguous run of kmer bits that a replica's mask keeps.
type bitRun struct {
	shift, width uint
}

// key packs km's unmasked bits together, most significant run first.
func (rp *replica) key(km seq.Kmer) uint64 {
	var key uint64
	for _, r := range rp.runs {
		key = key<<r.width | uint64(km)>>r.shift&(1<<r.width-1)
	}
	return key
}

// bucket returns the indices sharing km's bucket.
func (rp *replica) bucket(km seq.Kmer) []int32 {
	b := rp.key(km) >> rp.shift
	return rp.idx[rp.off[b]:rp.off[b+1]]
}

// NewNeighborIndex builds the index eagerly. c must satisfy d < c <= k;
// larger c costs more replicas (C(c,d)) but each replica bucket is more
// selective. Building scans the full spectrum twice per replica — a
// counting sort — so a memory-mapped spectrum is verified (whole-file
// CRC) first.
func NewNeighborIndex(spec *Spectrum, d, c int) (*NeighborIndex, error) {
	ni, err := newNeighborIndex(spec, d, c)
	if err != nil {
		return nil, err
	}
	if err := spec.Verify(); err != nil {
		return nil, err
	}
	for r := range ni.replicas {
		ni.buildReplica(&ni.replicas[r])
	}
	return ni, nil
}

// NewNeighborIndexLazy validates the parameters eagerly but defers each
// replica's permutation to its first Neighbors call, so a service over a
// freshly-mapped spectrum starts serving without paying C(c,d)
// full-spectrum passes up front. The first materialization verifies the
// spectrum; if verification fails, the failure is sticky on the spectrum
// (Spectrum.Err) and Neighbors answers empty rather than serving results
// computed from corrupt bytes. Materialization is safe for concurrent
// use.
func NewNeighborIndexLazy(spec *Spectrum, d, c int) (*NeighborIndex, error) {
	ni, err := newNeighborIndex(spec, d, c)
	if err != nil {
		return nil, err
	}
	ni.lazy = make([]sync.Once, len(ni.masks))
	return ni, nil
}

// newNeighborIndex checks parameters and computes the replica masks and
// key geometry — the cheap part shared by both construction modes.
func newNeighborIndex(spec *Spectrum, d, c int) (*NeighborIndex, error) {
	k := spec.K
	if d < 0 {
		return nil, fmt.Errorf("kspectrum: negative d")
	}
	if c <= d || c > k {
		return nil, fmt.Errorf("kspectrum: need d < c <= k, got d=%d c=%d k=%d", d, c, k)
	}
	ni := &NeighborIndex{spec: spec, D: d, C: c}
	chunks := chunkRanges(k, c)
	// At most about one bucket per four kmers keeps each offset table
	// within a quarter of its permutation's entry count.
	bucketBits := uint(0)
	for 4<<(bucketBits+1) <= len(spec.Kmers) {
		bucketBits++
	}
	for _, combo := range combinations(c, d) {
		var mask seq.Kmer
		for _, ci := range combo {
			for pos := chunks[ci][0]; pos < chunks[ci][1]; pos++ {
				shift := uint(2 * (k - 1 - pos))
				mask |= 3 << shift
			}
		}
		ni.masks = append(ni.masks, mask)
		rp := replica{runs: unmaskedRuns(mask, k)}
		keyBits := uint(0)
		for _, r := range rp.runs {
			keyBits += r.width
		}
		rp.shift = keyBits - min(bucketBits, keyBits)
		ni.replicas = append(ni.replicas, rp)
	}
	return ni, nil
}

// unmaskedRuns lists the runs of the 2k kmer bits that mask leaves
// clear, most significant first.
func unmaskedRuns(mask seq.Kmer, k int) []bitRun {
	var runs []bitRun
	for bit := 2 * k; bit > 0; {
		if mask>>(bit-1)&1 == 1 {
			bit--
			continue
		}
		top := bit
		for bit > 0 && mask>>(bit-1)&1 == 0 {
			bit--
		}
		runs = append(runs, bitRun{shift: uint(bit), width: uint(top - bit)})
	}
	return runs
}

// buildReplica fills rp's buckets with a counting sort of the spectrum
// indices by bucket: one pass counts, a prefix sum turns the counts into
// bucket ends, and a descending pass places each index at its bucket's
// decremented end, which leaves every bucket in ascending index order and
// every off[b] at its bucket's start. O(n) per replica.
func (ni *NeighborIndex) buildReplica(rp *replica) {
	kmers := ni.spec.Kmers
	nb := int(rp.key(^seq.Kmer(0))>>rp.shift) + 1
	off := make([]uint32, nb+1)
	for _, km := range kmers {
		off[rp.key(km)>>rp.shift]++
	}
	for b := 1; b <= nb; b++ {
		off[b] += off[b-1]
	}
	idx := make([]int32, len(kmers))
	for i := len(kmers) - 1; i >= 0; i-- {
		b := rp.key(kmers[i]) >> rp.shift
		off[b]--
		idx[off[b]] = int32(i)
	}
	rp.off, rp.idx = off, idx
}

// replica returns replica r, materializing it on first use in lazy mode.
// Its offsets are empty when the backing spectrum failed verification.
func (ni *NeighborIndex) replica(r int) *replica {
	rp := &ni.replicas[r]
	if ni.lazy == nil {
		return rp
	}
	ni.lazy[r].Do(func() {
		// The counting sort reads every kmer — a full scan — so the
		// deferred whole-file check runs first. sync.Once publishes the
		// writes to every later caller.
		if ni.spec.Verify() != nil {
			return
		}
		ni.buildReplica(rp)
	})
	return rp
}

// Replicas reports how many masked copies the index stores (C(c,d)),
// the paper's memory knob.
func (ni *NeighborIndex) Replicas() int { return len(ni.replicas) }

// Neighbors appends to dst the spectrum indices of all kmers within Hamming
// distance ni.D of km (including km itself when present) and returns the
// extended slice, deduplicated in ascending order. Passing a reused dst
// makes the call allocation-free — the correction inner loop depends on
// that.
//
//repro:noalloc
func (ni *NeighborIndex) Neighbors(km seq.Kmer, dst []int32) []int32 {
	k := ni.spec.K
	kmers := ni.spec.Kmers
	start := len(dst)
	for r, mask := range ni.masks {
		rp := ni.replica(r)
		if rp.off == nil {
			continue // lazy materialization failed verification
		}
		key := km &^ mask
		for _, i := range rp.bucket(km) {
			if cand := kmers[i]; cand&^mask == key && seq.HammingKmer(km, cand, k) <= ni.D {
				dst = append(dst, i)
			}
		}
	}
	// Deduplicate across replicas. slices.Sort, unlike sort.Slice, keeps
	// the slice header off the heap.
	found := dst[start:]
	slices.Sort(found)
	out := dst[:start]
	for i, v := range found {
		if i == 0 || v != found[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// NeighborKmers is Neighbors by value: it appends the kmers (not the
// spectrum indices) of km's d-neighborhood to dst, deduplicated and in
// ascending kmer order. Because the spectrum is sorted and unique,
// ascending kmer order and ascending index order are the same
// enumeration — the property the distributed path relies on to make a
// merged multi-shard neighborhood byte-identical to a local one.
//
//repro:noalloc
func (ni *NeighborIndex) NeighborKmers(km seq.Kmer, dst []seq.Kmer) []seq.Kmer {
	k := ni.spec.K
	kmers := ni.spec.Kmers
	start := len(dst)
	for r, mask := range ni.masks {
		rp := ni.replica(r)
		if rp.off == nil {
			continue
		}
		key := km &^ mask
		for _, i := range rp.bucket(km) {
			if cand := kmers[i]; cand&^mask == key && seq.HammingKmer(km, cand, k) <= ni.D {
				dst = append(dst, cand)
			}
		}
	}
	found := dst[start:]
	slices.Sort(found)
	out := dst[:start]
	for i, v := range found {
		if i == 0 || v != found[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// BruteForceNeighbors enumerates the complete d-neighborhood by probing
// every kmer within Hamming distance d of km against the spectrum — the
// paper's alternative O(C(k,d)·4^d·log|R^k|) method, kept as the oracle for
// correctness tests and as the ablation baseline.
func BruteForceNeighbors(spec *Spectrum, km seq.Kmer, d int) []int32 {
	var out []int32
	var walk func(cur seq.Kmer, pos, left int)
	walk = func(cur seq.Kmer, pos, left int) {
		if left == 0 || pos == spec.K {
			if i := spec.Index(cur); i >= 0 {
				out = append(out, int32(i))
			}
			return
		}
		walk(cur, pos+1, left) // no change at pos; try later positions
		orig := cur.At(pos, spec.K)
		for b := seq.Base(0); b < 4; b++ {
			if b == orig {
				continue
			}
			walk(cur.WithBase(pos, spec.K, b), pos+1, left-1)
		}
	}
	walk(km, 0, d)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	// walk visits each kmer exactly once for distance ≤ d? No: the
	// "no change" branch combined with later substitutions enumerates each
	// mutation set exactly once, but distance-<d kmers are reached via
	// multiple left values; dedupe defensively.
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

func chunkRanges(k, c int) [][2]int {
	out := make([][2]int, c)
	for i := 0; i < c; i++ {
		out[i] = [2]int{i * k / c, (i + 1) * k / c}
	}
	return out
}

// combinations enumerates all d-subsets of {0..n-1}.
func combinations(n, d int) [][]int {
	if d == 0 {
		return [][]int{{}}
	}
	var out [][]int
	combo := make([]int, d)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == d {
			out = append(out, append([]int(nil), combo...))
			return
		}
		for i := start; i <= n-(d-idx); i++ {
			combo[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
	return out
}
