// Command perfbench is the repository's end-to-end benchmark. It makes
// every input from a seed, drives the system through three workloads
// (batch, build, serve), checks the outputs, and prints one JSON
// result line:
//
//	perfbench --workload serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the workload runs once untraced and once with spans recorded around its
// calls into the repository's packages, and the result carries the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract; BENCHMARK.json lists the same names and
// units (the package test checks that they agree).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"reads_per_s", "reads/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"fastq.decode_s", "s"},
	{"fastq.encode_s", "s"},
	{"reptile.phase1_add_s", "s"},
	{"reptile.phase1_finish_s", "s"},
	{"kspectrum.count_s", "s"},
	{"kspectrum.merge_s", "s"},
	{"kspectrum.merge_allocs", "count"},
	{"kspectrum.spill_runs", "count"},
	{"kspectrum.spilled_bytes", "bytes"},
	{"kspectrum.kmers", "count"},
	{"kspectrum.tiles_s", "s"},
	{"kspectrum.tiles", "count"},
	{"kspectrum.neighbor_index_s", "s"},
	{"kspectrum.store_write_s", "s"},
	{"kspectrum.store_bytes", "bytes"},
	{"kspectrum.store_open_s", "s"},
	{"reptile.correct_s", "s"},
	{"reptile.changed_reads", "count"},
	{"reptile.changed_bases", "count"},
	{"reptile.changed_frac", "fraction"},
	{"reptile.gain_pct", "%"},
	{"reptile.chunk_ms", "ms"},
	{"kspectrum.chunk_tiles_ms", "ms"},
	{"cli.overhead_ms", "ms"},
	{"cli.shed", "count"},
	{"cli.requests", "count"},
	{"remote.round_trips_per_chunk", "count"},
	{"remote.wire_bytes_per_chunk", "bytes"},
	{"remote.query_ms", "ms"},
	{"remote.retries", "count"},
	{"remote.countmany_512_us", "us"},
	{"remote.countmany_512_allocs", "count"},
	{"gen.p90_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.samples", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.accounted_pct", "%"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"batch": runBatch,
	"build": runBuild,
	"serve": runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: batch, build or serve")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measurement time of one run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	r, err := newRun(".", *workload, fullScale(), *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := r.execute(drive)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
