package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/fastq"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// scale fixes the input sizes and offered load of every workload. The
// benchmark runs fullScale; the package test runs a tiny one.
type scale struct {
	// Corpora: genome length (bp) and coverage. Reads are 36 bp with a
	// 0.8% substitution rate under the E. coli-like platform bias.
	BatchGenome int
	BatchCover  float64
	BuildGenome int
	BuildCover  float64
	ServeGenome int
	ServeCover  float64

	// ServeChunk is the request size in reads, repro loadgen's default.
	ServeChunk int

	// ServeRate is the open-loop rate in requests per second, fixed so
	// that two commits are compared at the same offered load: about a
	// third of capacity on a 2-vCPU machine.
	ServeRate float64

	// SetupReps is how many times one run sets up, reporting the median.
	SetupReps int
	// MinPasses is the least number of batch/build passes in a run.
	MinPasses int
	// ReplayChunks is how many chunks the traced serve run replays one at
	// a time, to the daemon and to the coordinator, to split a request
	// into its layers.
	ReplayChunks int
}

func fullScale() scale {
	return scale{
		BatchGenome: 100_000, BatchCover: 60,
		BuildGenome: 120_000, BuildCover: 60,
		ServeGenome: 100_000, ServeCover: 30,
		ServeChunk: 500, ServeRate: 20,
		SetupReps: 3, MinPasses: 3, ReplayChunks: 40,
	}
}

const (
	readLen   = 36
	errorRate = 0.008
)

// run is one invocation of one workload: its inputs' seed, its time
// budget, the operation tally and the metrics it reports.
type run struct {
	workload string
	sc       scale
	seed     int64
	seconds  float64
	traced   bool
	nproc    int
	root     string // where .bench_build/ is: the checkout's root
	dir      string // scratch files, removed when the run ends
	out      io.Writer

	// trp holds the tracer during the traced half of a traced run; nil
	// otherwise, which makes every span call a no-op. It is atomic
	// because daemon goroutines that the run started earlier read it.
	trp atomic.Pointer[tracer]

	// wrap, when set, wraps every daemon handler the run starts. The
	// package test uses it to corrupt responses.
	wrap func(http.Handler) http.Handler

	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	metrics map[string]float64
}

func newRun(root, workload string, sc scale, seed int64, seconds float64, traced bool) (*run, error) {
	base := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, workload+"-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &run{
		workload: workload, sc: sc, root: root, seed: seed, seconds: seconds, traced: traced,
		nproc: runtime.NumCPU(), dir: abs, out: os.Stdout,
		metrics: make(map[string]float64),
	}, nil
}

// execute drives the workload and assembles the result. An error means
// the benchmark itself could not run; a wrong output is a failed
// operation and makes the result incorrect instead.
func (r *run) execute(drive func(*run) error) (result, error) {
	defer os.RemoveAll(r.dir)
	if err := drive(r); err != nil {
		return result{}, err
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var idle []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			if !r.traced {
				return result{}, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			// A layer the workload does not reach did no work on it.
			idle = append(idle, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(idle) > 0 {
		r.logf("layers not exercised by %s (reported as 0): %s", r.workload, strings.Join(idle, " "))
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// op counts one attempted operation; a non-nil err counts it as failed
// (an error, a refusal or a wrong output) and is reported on stderr.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		if r.failed.Add(1) <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		}
	}
}

func (r *run) tr() *tracer { return r.trp.Load() }

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// phase is a share of the run's measurement time, at least min.
func (r *run) phase(share float64, min time.Duration) time.Duration {
	return max(time.Duration(share*r.seconds*float64(time.Second)), min)
}

// corpus is one simulated read set with its ground truth.
type corpus struct {
	genomeLen int
	sim       []simulate.SimRead
	reads     []seq.Read
	fq        []byte // the reads as FASTQ
}

// makeCorpus simulates the workload's reads from the run's seed. Two
// synthesis workers select the per-read random streams, whose output is
// the same for any worker count above one, so inputs do not depend on
// the machine.
func makeCorpus(genomeLen int, coverage float64, seed int64) (*corpus, error) {
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "perfbench", GenomeLen: genomeLen, ReadLen: readLen, Coverage: coverage,
		ErrorRate: errorRate, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: seed, Workers: 2,
	})
	if err != nil {
		return nil, err
	}
	reads := simulate.Reads(ds.Sim)
	var buf bytes.Buffer
	if err := fastq.Write(&buf, reads); err != nil {
		return nil, err
	}
	return &corpus{genomeLen: genomeLen, sim: ds.Sim, reads: reads, fq: buf.Bytes()}, nil
}

// setupCorpus makes the corpus SetupReps times and reports the median
// time as setup_s: for the batch workloads, making the input is the
// set-up.
func (r *run) setupCorpus(genomeLen int, coverage float64) (*corpus, error) {
	var c *corpus
	var times []float64
	for i := 0; i < r.sc.SetupReps; i++ {
		start := time.Now()
		var err error
		if c, err = makeCorpus(genomeLen, coverage, r.seed); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times))
	r.logf("corpus: %d reads of %d bp over a %d bp genome (seed %d); set-up %.3f s (median of %d)",
		len(c.reads), readLen, genomeLen, r.seed, median(times), len(times))
	return c, nil
}

// gainPct scores corrected reads against the simulation truth.
func (r *run) gainPct(c *corpus, corrected []seq.Read) (float64, error) {
	st, err := eval.EvaluateCorrectionParallel(c.sim, corrected, r.nproc)
	if err != nil {
		return 0, err
	}
	return 100 * st.Gain(), nil
}

// checkShape verifies that a corrector kept every read and its length.
func checkShape(orig, corrected []seq.Read) error {
	if len(orig) != len(corrected) {
		return fmt.Errorf("%d reads in, %d out", len(orig), len(corrected))
	}
	for i := range orig {
		if len(orig[i].Seq) != len(corrected[i].Seq) || len(orig[i].Qual) != len(corrected[i].Qual) {
			return fmt.Errorf("read %d changed length", i)
		}
		if orig[i].ID != corrected[i].ID {
			return fmt.Errorf("read %d is %q, want %q", i, corrected[i].ID, orig[i].ID)
		}
	}
	return nil
}

// chunkReads splits reads into consecutive chunks of n.
func chunkReads(reads []seq.Read, n int) [][]seq.Read {
	var out [][]seq.Read
	for at := 0; at < len(reads); at += n {
		out = append(out, reads[at:min(at+n, len(reads))])
	}
	return out
}

// peakRSSMB is this process's peak resident set (VmHWM) in MB. VmHWM is
// per address space and restarts at exec, so a child process reports
// its own peak, not its parent's.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS hands freed memory back to the OS and restarts the
// process's peak RSS count, so that the peak read later covers only what
// runs after the reset.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
