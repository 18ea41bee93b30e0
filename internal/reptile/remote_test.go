package reptile_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/kspectrum"
	"repro/internal/remote"
	"repro/internal/reptile"
	"repro/internal/simulate"
)

// startCoordinatorBackend splits spec into four shard stores served by two
// in-process node daemons and returns the coordinator-side remote backend
// over them.
func startCoordinatorBackend(t *testing.T, spec *kspectrum.Spectrum) *remote.RemoteSpectrum {
	t.Helper()
	const shards = 4
	dir := t.TempDir()
	_, views, err := kspectrum.SplitShards(spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, owned := range [][]int{{0, 1}, {2, 3}} {
		loaded := make(map[string]*kspectrum.Spectrum)
		meta := make(map[string]remote.ShardInfo)
		for _, i := range owned {
			path := filepath.Join(dir, kspectrum.ShardFileName("main", i, shards))
			if err := kspectrum.WriteSpectrumFile(path, views[i]); err != nil {
				t.Fatal(err)
			}
			sh, err := kspectrum.ReadSpectrumFile(path)
			if err != nil {
				t.Fatal(err)
			}
			entry := kspectrum.ShardEntryName("main", i, shards)
			loaded[entry] = sh
			meta[entry] = remote.ShardInfo{
				Spectrum: "main", Shard: i, Of: shards, Entry: entry,
				K: sh.K, BothStrands: sh.BothStrands, Kmers: sh.Size(),
			}
		}
		h, err := cli.NewHandler(loaded, cli.ServerOptions{Workers: 1, ShardEntries: meta})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	maps, err := remote.Discover(context.Background(), nil, urls)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := remote.New(maps["main"], remote.Options{
		Policy: client.Policy{MaxRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestMutantTilesMatchReferenceRemote runs the mutant-enumeration oracle
// through a coordinator backend: neighborhoods and the second-kmer
// membership batch both travel to the shard nodes. Tiles come from the
// request chunk, so against a foreign spectrum — built from another read
// set of the same genome — the remote membership check must reject
// candidates too.
func TestMutantTilesMatchReferenceRemote(t *testing.T) {
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 3000, ReadLen: 36, Coverage: 25,
		ErrorRate: 0.015, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 73,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	own, err := kspectrum.Build(reads, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	otherSim, err := simulate.SimulateReads(ds.Genome, simulate.ReadSimConfig{
		N: 1500, Model: simulate.IlluminaModel(36, 0.005, simulate.EcoliBias),
		BothStrands: true, QualityNoise: 2,
	}, rand.New(rand.NewSource(74)))
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := kspectrum.Build(simulate.Reads(otherSim), 11, true)
	if err != nil {
		t.Fatal(err)
	}
	spectra := map[string]*remote.RemoteSpectrum{
		"own":     startCoordinatorBackend(t, own),
		"foreign": startCoordinatorBackend(t, foreign),
	}
	// Tile support comes from this chunk; the oracle walks a slice of it,
	// since every neighborhood is an HTTP round trip.
	chunk, walked := reads[:600], reads[:16]
	for _, d := range []int{1, 2} {
		for _, overlap := range []int{0, 3} {
			for _, name := range []string{"own", "foreign"} {
				t.Run(fmt.Sprintf("d=%d/l=%d/%s", d, overlap, name), func(t *testing.T) {
					rs := spectra[name]
					svc, err := reptile.NewServiceBackend(rs, rs, reptile.Params{D: d, Overlap: overlap})
					if err != nil {
						t.Fatal(err)
					}
					c, err := svc.ChunkCorrector(chunk)
					if err != nil {
						t.Fatal(err)
					}
					compared, rejected := reptile.CheckMutantOracle(t, c, walked)
					t.Logf("%d candidates compared, %d rejected by spectrum membership", compared, rejected)
					if compared == 0 {
						t.Fatal("the chunk produced no mutant candidates")
					}
					if name == "foreign" && rejected == 0 {
						t.Fatal("the foreign spectrum rejected no candidate second kmer")
					}
				})
			}
		}
	}
}
