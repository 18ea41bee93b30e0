package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// batch or build workload starts a pass in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func tinyScale() scale {
	return scale{
		BatchGenome: 4000, BatchCover: 20,
		BuildGenome: 6000, BuildCover: 20,
		ServeGenome: 4000, ServeCover: 20,
		ServeChunk: 100, ServeRate: 20,
		SetupReps: 1, MinPasses: 1, ReplayChunks: 3,
	}
}

func runTiny(t *testing.T, workload string, traced bool, wrap func(http.Handler) http.Handler) result {
	t.Helper()
	r, err := newRun(t.TempDir(), workload, tinyScale(), 7, 1, traced)
	if err != nil {
		t.Fatal(err)
	}
	r.out = io.Discard
	r.wrap = wrap
	res, err := r.execute(workloads[workload])
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	return res
}

var (
	tinyMu      sync.Mutex
	tinyResults = make(map[string]result)
)

// tinyResult runs a workload once per test binary and shares the result.
func tinyResult(t *testing.T, workload string, traced bool) result {
	t.Helper()
	key := workload
	if traced {
		key += "/traced"
	}
	tinyMu.Lock()
	defer tinyMu.Unlock()
	if res, ok := tinyResults[key]; ok {
		return res
	}
	res := runTiny(t, workload, traced, nil)
	tinyResults[key] = res
	return res
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		units := make(map[string]string)
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		for _, d := range want {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json, %q in the benchmark", kind, d.name, u, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// exercised names, per workload, layer metrics that must be measured
// (non-zero) in its traced run.
var exercised = map[string][]string{
	"batch": {"fastq.decode_s", "fastq.encode_s", "reptile.phase1_add_s", "reptile.phase1_finish_s",
		"kspectrum.count_s", "kspectrum.kmers", "kspectrum.tiles_s", "kspectrum.tiles",
		"kspectrum.neighbor_index_s", "reptile.correct_s", "reptile.changed_reads",
		"reptile.changed_bases", "reptile.changed_frac", "reptile.gain_pct", "trace.accounted_pct"},
	"build": {"fastq.decode_s", "reptile.phase1_add_s", "reptile.phase1_finish_s", "kspectrum.count_s",
		"kspectrum.merge_s", "kspectrum.merge_allocs", "kspectrum.spill_runs", "kspectrum.spilled_bytes",
		"kspectrum.kmers", "kspectrum.tiles_s", "kspectrum.tiles", "kspectrum.neighbor_index_s",
		"kspectrum.store_write_s", "kspectrum.store_bytes", "kspectrum.store_open_s", "trace.accounted_pct"},
	"serve": {"fastq.decode_s", "fastq.encode_s", "kspectrum.kmers", "kspectrum.tiles",
		"kspectrum.neighbor_index_s", "kspectrum.store_write_s", "kspectrum.store_bytes",
		"kspectrum.store_open_s", "reptile.chunk_ms", "kspectrum.chunk_tiles_ms", "cli.requests",
		"gen.samples", "gen.p90_ms", "trace.accounted_pct", "remote.round_trips_per_chunk",
		"remote.wire_bytes_per_chunk", "remote.query_ms", "remote.countmany_512_us", "remote.countmany_512_allocs"},
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res := tinyResult(t, w, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (traced %v): %s = %+v, want unit %q", w, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if traced {
				for _, name := range exercised[w] {
					if res.Metrics[name].Value == 0 {
						t.Errorf("%s: layer metric %s was not measured", w, name)
					}
				}
			}
		}
	}
}

// flipBase changes the first base of the first read in every successful
// correction answer.
func flipBase(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !strings.HasPrefix(req.URL.Path, "/v2/correct") {
			next.ServeHTTP(w, req)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			if nl := bytes.IndexByte(body, '\n'); nl >= 0 && nl+1 < len(body) {
				if body[nl+1] == 'A' {
					body[nl+1] = 'C'
				} else {
					body[nl+1] = 'A'
				}
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestFlippedBaseInAServedAnswerFailsTheRun(t *testing.T) {
	res := runTiny(t, "serve", false, flipBase)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a corrupted answer passed the check: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if res.Failed != res.Attempted {
		t.Errorf("%d of %d requests failed; every answer was corrupted", res.Failed, res.Attempted)
	}
}

func TestDeterministicCountsRepeat(t *testing.T) {
	counts := map[string][]string{
		"batch": {"kspectrum.kmers", "reptile.changed_bases", "reptile.gain_pct"},
		"build": {"kspectrum.kmers", "kspectrum.spill_runs"},
		"serve": {"kspectrum.kmers", "reptile.changed_bases", "reptile.gain_pct", "remote.round_trips_per_chunk"},
	}
	for w, names := range counts {
		first := tinyResult(t, w, true)
		again := runTiny(t, w, true, nil)
		for _, n := range names {
			if a, b := first.Metrics[n].Value, again.Metrics[n].Value; a != b {
				t.Errorf("%s: %s is %v on one run and %v on another", w, n, a, b)
			}
		}
	}
}
