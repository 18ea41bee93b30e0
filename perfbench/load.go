package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// target is a daemon's correction endpoint with the request bodies the
// benchmark sends and the exact response body each must come back as.
type target struct {
	url    string
	chunks [][]byte
	want   [][]byte
	reads  []int
	// next picks the chunk of the next request, cycling in order.
	next atomic.Int64
}

func (tg *target) pick() int { return int((tg.next.Add(1) - 1) % int64(len(tg.chunks))) }

// newClient is a load-generator client holding at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		},
	}
}

// send posts chunk j to base and checks the answer byte for byte.
func (tg *target) send(hc *http.Client, base string, j int) error {
	resp, err := hc.Post(base+tg.url, "text/x-fastq", bytes.NewReader(tg.chunks[j]))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("chunk %d: reading the answer: %w", j, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chunk %d: HTTP %d: %.200s", j, resp.StatusCode, body)
	}
	if !bytes.Equal(body, tg.want[j]) {
		return fmt.Errorf("chunk %d: the answer differs from the in-process correction of the same chunk", j)
	}
	return nil
}

// openLoopStats is what an open-loop phase measured, in schedule order.
type openLoopStats struct {
	latMS  []float64 // each request's latency, from its due time
	lateMS []float64 // how late the generator handed each request out
}

// openLoopWindow is the number of requests per window in windowQuantile.
const openLoopWindow = 75

// windowQuantile splits the phase into consecutive windows of about
// openLoopWindow requests and returns the median over the windows of
// each window's q-quantile, so that a stall of the machine in one window
// does not move it. A phase too short for two windows is one window.
func (s openLoopStats) windowQuantile(q float64) float64 {
	n := len(s.latMS)
	windows := max(n/openLoopWindow, 1)
	var per []float64
	for w := 0; w < windows; w++ {
		per = append(per, quantile(s.latMS[w*n/windows:(w+1)*n/windows], q))
	}
	return median(per)
}

// openLoop sends requests on a fixed schedule, rate per second for dur,
// over at most conns connections. A request waits for a free connection
// if all are busy, and its latency is timed from when it was due, so a
// stall is charged to every request it delays. The generator's own
// lateness — how long after the due time it woke to hand a request out —
// is reported separately: a run whose generator ran late measured the
// generator, not the daemon.
func (r *run) openLoop(tg *target, base string, rate float64, dur time.Duration, conns int) openLoopStats {
	n := max(int(rate*dur.Seconds()), 1)
	type job struct {
		i, j int // schedule position, chunk
		due  time.Time
	}
	// Buffered for every scheduled request, so the scheduler never
	// blocks on busy connections.
	jobs := make(chan job, n)
	hc := newClient(conns)
	defer hc.CloseIdleConnections()
	// Each worker writes only the latency slots of its own jobs.
	stats := openLoopStats{latMS: make([]float64, n), lateMS: make([]float64, n)}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				sp := r.tr().beginReq("cli.request", spanRef{}, int64(jb.i+1))
				err := tg.send(hc, base, jb.j)
				lat := time.Since(jb.due)
				r.tr().end(sp, map[string]int64{"chunk": int64(jb.j)})
				// A failed request is counted as failed, which already
				// makes the run incorrect; its time still enters the
				// latency sample so a run where all fail reports one.
				r.op(err)
				stats.latMS[jb.i] = float64(lat.Nanoseconds()) / 1e6
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		stats.lateMS[i] = float64(time.Since(due).Nanoseconds()) / 1e6
		jobs <- job{i: i, j: tg.pick(), due: due}
	}
	close(jobs)
	wg.Wait()
	return stats
}

// closedLoop keeps conns requests in flight for dur, each connection
// sending its next request as soon as the last one is answered. It
// returns the median over two-second windows of the reads corrected per
// second, so that a stall of the machine in one window does not move it.
func (r *run) closedLoop(tg *target, base string, dur time.Duration, conns int) float64 {
	windows := max(int(dur/(2*time.Second)), 1)
	width := dur / time.Duration(windows)
	done := make([]atomic.Int64, windows) // reads answered in each window
	hc := newClient(conns)
	defer hc.CloseIdleConnections()
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := tg.pick()
				err := tg.send(hc, base, j)
				r.op(err)
				if i := int(time.Since(start) / width); err == nil && i < windows {
					done[i].Add(int64(tg.reads[j]))
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, windows)
	for i := range done {
		rates[i] = float64(done[i].Load()) / width.Seconds()
	}
	return median(rates)
}

// daemon is a handler served on a loopback listener.
type daemon struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func (r *run) startDaemon(h http.Handler) (*daemon, error) {
	if r.wrap != nil {
		h = r.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		if err := d.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# daemon at %s stopped: %v\n", d.url, err)
		}
	}()
	return d, nil
}

// close stops the daemon and waits for its serving loop to return.
func (d *daemon) close() {
	d.srv.Close()
	<-d.done
}

// scrape sums the samples of every metric on the daemon's /metrics
// page by metric name, over all label sets.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// wireCounter is the coordinator's transport to its nodes, wrapped to
// count shard round trips, their bytes and their time. While a request
// is replayed alone, parent names its span, and every round trip is
// recorded as a remote.query span under it.
type wireCounter struct {
	base http.RoundTripper
	run  *run

	trips, ok, bytes atomic.Int64

	mu     sync.Mutex
	durMS  []float64
	parent spanRef
}

func (wc *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	wc.mu.Lock()
	parent := wc.parent
	wc.mu.Unlock()
	tr := wc.run.tr()
	sp := tr.begin("remote.query", parent)
	start := time.Now()
	resp, err := wc.base.RoundTrip(req)
	wc.trips.Add(1)
	if err != nil {
		tr.end(sp, nil)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	elapsed := time.Since(start)
	n := max(req.ContentLength, 0) + int64(len(body))
	tr.end(sp, map[string]int64{"bytes": n})
	wc.bytes.Add(n)
	if resp.StatusCode == http.StatusOK {
		wc.ok.Add(1)
	}
	wc.mu.Lock()
	wc.durMS = append(wc.durMS, float64(elapsed.Nanoseconds())/1e6)
	wc.mu.Unlock()
	return resp, err
}

func (wc *wireCounter) setParent(s spanRef) {
	wc.mu.Lock()
	wc.parent = s
	wc.mu.Unlock()
}
