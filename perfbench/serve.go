package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/remote"
	"repro/internal/reptile"
	"repro/internal/seq"
)

// daemonOptions are repro serve's defaults.
func daemonOptions() cli.ServerOptions {
	return cli.ServerOptions{
		RequestTimeout: time.Minute, MaxChunkReads: 100000, MaxChunkBytes: 64 << 20,
		Workers: 1, D: 1, ErrorRate: 0.01,
	}
}

// served is a serve-type workload's inputs: the corpus, its spectrum and
// the request target with every answer precomputed.
type served struct {
	c    *corpus
	spec *kspectrum.Spectrum
	tg   *target
}

// prepareServed simulates the serve corpus, builds its spectrum, splits
// the reads into request chunks and precomputes, outside any timed
// window, the answer each chunk must get: the in-process
// reptile.Service correction of that chunk over the unsharded spectrum.
// The Gain of those answers, over one in-order pass of every chunk, is
// the workload's correction quality.
func (r *run) prepareServed() (*served, error) {
	chunkSize := r.sc.ServeChunk
	c, err := makeCorpus(r.sc.ServeGenome, r.sc.ServeCover, r.seed)
	if err != nil {
		return nil, err
	}
	k := reptile.DefaultParams(nil, c.genomeLen).K
	spec, err := kspectrum.Build(c.reads, k, true)
	if err != nil {
		return nil, err
	}
	svc, err := reptile.NewService(spec, reptile.Params{})
	if err != nil {
		return nil, err
	}
	tg := &target{url: "/v2/correct?engine=reptile&spectrum=main"}
	var all []seq.Read
	for _, ch := range chunkReads(c.reads, chunkSize) {
		body, err := fastq.EncodeChunk(ch)
		if err != nil {
			return nil, err
		}
		out, _, err := svc.CorrectChunkCtx(context.Background(), ch, r.nproc)
		if err != nil {
			return nil, err
		}
		want, err := fastq.EncodeChunk(out)
		if err != nil {
			return nil, err
		}
		tg.chunks = append(tg.chunks, body)
		tg.want = append(tg.want, want)
		tg.reads = append(tg.reads, len(ch))
		all = append(all, out...)
	}
	gain, err := r.gainPct(c, all)
	if err != nil {
		return nil, err
	}
	changed := engine.CountChanged(c.reads, all)
	r.set("reptile.gain_pct", gain)
	r.set("reptile.changed_reads", float64(changed))
	r.set("reptile.changed_bases", float64(engine.CountChangedBases(c.reads, all)))
	r.set("reptile.changed_frac", float64(changed)/float64(len(c.reads)))
	r.set("kspectrum.kmers", float64(spec.Size()))
	r.logf("serve corpus: %d reads over a %d bp genome (seed %d), k=%d, %d kmers; %d chunks of %d reads; chunk-local gain %.3f%%, %d reads changed",
		len(c.reads), c.genomeLen, r.seed, k, spec.Size(), len(tg.chunks), chunkSize, gain, changed)
	return &served{c: c, spec: spec, tg: tg}, nil
}

// writeStore persists a spectrum, timing the write.
func (r *run) writeStore(path string, s *kspectrum.Spectrum) (float64, error) {
	start := time.Now()
	if err := kspectrum.WriteSpectrumFile(path, s); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// setup starts the workload's daemons SetupReps times, each from
// scratch: start opens the stores and returns the daemon to send to and
// a function that stops everything it started. The time from opening the
// stores to the first checked 200 answer is the set-up time; the last
// daemon stays up for the measurement.
func (r *run) setup(tg *target, start func() (string, func(), error)) (string, func(), error) {
	var times []float64
	var url string
	stop := func() {}
	for i := 0; i < r.sc.SetupReps; i++ {
		stop()
		t0 := time.Now()
		u, s, err := start()
		if err != nil {
			return "", nil, err
		}
		url, stop = u, s
		hc := newClient(1)
		err = tg.send(hc, url, 0)
		times = append(times, time.Since(t0).Seconds())
		hc.CloseIdleConnections()
		r.op(err)
	}
	r.set("setup_s", median(times))
	r.logf("set-up (open store, start daemon, first answer): %v s", fmtList(times))
	return url, stop, nil
}

// measure runs the open-loop phase at a fixed rate for half the run's
// time, then the closed-loop saturation phase for the other half.
// Untraced, it reports the end-to-end metrics. Traced, it runs both
// phases untraced and again traced, and reports the generator's lateness
// and the tracing overhead on the open-loop median.
func (r *run) measure(tg *target, url string) error {
	rate := r.sc.ServeRate
	phases := func(share float64) (openLoopStats, float64) {
		ol := r.openLoop(tg, url, rate, r.phase(share/2, time.Second), r.nproc)
		rps := r.closedLoop(tg, url, r.phase(share/2, time.Second), r.nproc)
		// A generator that hands requests out later than half the gap
		// between them no longer keeps the schedule: the phase measured
		// the generator, not the daemon, and the run is invalid.
		late, bound := quantile(ol.lateMS, 0.99), 500/rate
		if late > bound {
			r.op(fmt.Errorf("the open-loop generator ran %.1f ms late at p99 (bound %.1f ms): the run is invalid", late, bound))
		}
		r.logf("open loop at %.1f req/s: %d samples, p50 %.3f ms, p90 %.3f ms (windowed %.3f, %.3f), generator late p99 %.3f ms; saturation with %d connections: %.0f reads/s",
			rate, len(ol.latMS), median(ol.latMS), quantile(ol.latMS, 0.9), ol.windowQuantile(0.5), ol.windowQuantile(0.9), late, r.nproc, rps)
		return ol, rps
	}
	if !r.traced {
		ol, rps := phases(1)
		r.set("p50_ms", ol.windowQuantile(0.5))
		r.set("reads_per_s", rps)
		return nil
	}
	untraced, _ := phases(0.5)
	r.trp.Store(newTracer(fmt.Sprintf("%s-seed%d", r.workload, r.seed)))
	traced, _ := phases(0.5)
	u := median(untraced.latMS)
	r.set("trace.overhead_pct", 100*(median(traced.latMS)-u)/u)
	r.set("gen.p90_ms", traced.windowQuantile(0.9))
	r.set("gen.late_p99_ms", quantile(traced.lateMS, 0.99))
	r.set("gen.samples", float64(len(traced.latMS)))
	return nil
}

// replay sends chunks one at a time and, for each, times the same work in
// process, layer by layer: fastq decode, the chunk-local tile count,
// the service's correction of the chunk and the fastq encode. The
// request's latency minus those layers is the daemon's own overhead
// (HTTP, admission, response writing). svc corrects in process.
func (r *run) replay(tg *target, url string, svc *reptile.Service) error {
	tr := r.tr()
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	k := svc.Params().K
	// The first correction builds the service's lazy neighbor index; the
	// daemon has already paid for its own.
	warm, err := fastq.DecodeChunk(bytes.NewReader(tg.chunks[0]), 0)
	if err != nil {
		return err
	}
	if _, _, err := svc.CorrectChunkCtx(context.Background(), warm, 1); err != nil {
		return err
	}
	var lat, decode, tiles, nTiles, chunk, encode, overhead []float64
	for i := 0; i < r.sc.ReplayChunks; i++ {
		j := i % len(tg.chunks)
		root := tr.beginReq("replay", spanRef{}, int64(i+1))

		sp := tr.begin("cli.request", root)
		t0 := time.Now()
		err := tg.send(hc, url, j)
		l := time.Since(t0).Seconds()
		tr.end(sp, nil)
		r.op(err)

		sp = tr.begin("fastq.decode", root)
		t0 = time.Now()
		reads, err := fastq.DecodeChunk(bytes.NewReader(tg.chunks[j]), 0)
		d := time.Since(t0).Seconds()
		tr.end(sp, map[string]int64{"reads": int64(len(reads))})
		if err != nil {
			return err
		}

		sp = tr.begin("kspectrum.chunk_tiles", root)
		t0 = time.Now()
		ts, err := kspectrum.CountTiles(reads, k, svc.Params().Overlap, kspectrum.QualityQuantile(reads, 0.17))
		tl := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		tr.end(sp, map[string]int64{"tiles": int64(ts.Size())})

		sp = tr.begin("reptile.chunk", root)
		t0 = time.Now()
		out, _, err := svc.CorrectChunkCtx(context.Background(), reads, daemonOptions().Workers)
		c := time.Since(t0).Seconds()
		tr.end(sp, nil)
		if err != nil {
			return err
		}

		sp = tr.begin("fastq.encode", root)
		t0 = time.Now()
		body, err := fastq.EncodeChunk(out)
		e := time.Since(t0).Seconds()
		tr.end(sp, nil)
		if err != nil {
			return err
		}
		tr.end(root, nil)
		if !bytes.Equal(body, tg.want[j]) {
			r.op(fmt.Errorf("chunk %d: in-process replay differs from the precomputed answer", j))
		}
		lat = append(lat, l)
		decode = append(decode, d)
		tiles = append(tiles, tl)
		nTiles = append(nTiles, float64(ts.Size()))
		chunk = append(chunk, c)
		encode = append(encode, e)
		overhead = append(overhead, l-(d+c+e))
	}
	r.set("fastq.decode_s", median(decode))
	r.set("fastq.encode_s", median(encode))
	r.set("kspectrum.chunk_tiles_ms", 1000*median(tiles))
	r.set("kspectrum.tiles", median(nTiles))
	r.set("reptile.chunk_ms", 1000*median(chunk))
	r.set("cli.overhead_ms", 1000*median(overhead))
	layers := median(decode) + median(chunk) + median(encode)
	r.set("trace.accounted_pct", 100*layers/median(lat))
	r.logf("replayed %d chunks one at a time: median request %.3f ms = decode %.3f + chunk %.3f (of which tiles %.3f) + encode %.3f ms in process, %.3f ms (%.1f%%) unaccounted",
		len(lat), 1000*median(lat), 1000*median(decode), 1000*median(chunk), 1000*median(tiles), 1000*median(encode),
		1000*(median(lat)-layers), 100-100*layers/median(lat))
	return nil
}

// daemonCounts reports the daemon's own request counters.
func (r *run) daemonCounts(url string) error {
	m, err := scrape(url)
	if err != nil {
		return err
	}
	r.set("cli.requests", m["repro_requests_total"])
	r.set("cli.shed", m["repro_requests_shed_total"])
	return nil
}

// runServe is one daemon over the mapped store of the serve corpus's
// spectrum, answering 500-read chunks. Its traced run also measures the
// remote layer behind a coordinator (clusterLayers).
func runServe(r *run) error {
	sv, err := r.prepareServed()
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, "serve.kspc")
	wrote, err := r.writeStore(path, sv.spec)
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var opens []float64
	url, stop, err := r.setup(sv.tg, func() (string, func(), error) {
		t0 := time.Now()
		m, err := kspectrum.OpenMapped(path)
		if err != nil {
			return "", nil, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		opts := daemonOptions()
		opts.SpectrumPaths = map[string]string{"main": path}
		h, err := cli.NewHandler(map[string]*kspectrum.Spectrum{"main": m}, opts)
		if err != nil {
			m.Close()
			return "", nil, err
		}
		d, err := r.startDaemon(h)
		if err != nil {
			m.Close()
			return "", nil, err
		}
		return d.url, func() { d.close(); m.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer stop()
	if err := r.measure(sv.tg, url); err != nil {
		return err
	}
	if !r.traced {
		return r.setRSS()
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("kspectrum.store_write_s", wrote)
	r.set("kspectrum.store_bytes", float64(fi.Size()))
	r.set("kspectrum.store_open_s", median(opens))
	m, err := kspectrum.OpenMapped(path)
	if err != nil {
		return err
	}
	defer m.Close()
	svc, err := reptile.NewService(m, reptile.Params{})
	if err != nil {
		return err
	}
	p := svc.Params()
	sp := r.tr().begin("kspectrum.neighbor_index", spanRef{})
	t0 := time.Now()
	if _, err := kspectrum.NewNeighborIndex(m, p.D, p.C); err != nil {
		return err
	}
	r.set("kspectrum.neighbor_index_s", time.Since(t0).Seconds())
	r.tr().end(sp, nil)
	if err := r.replay(sv.tg, url, svc); err != nil {
		return err
	}
	if err := r.daemonCounts(url); err != nil {
		return err
	}
	if err := r.clusterLayers(sv, svc); err != nil {
		return err
	}
	return r.tr().report(r.out, r.root, r.workload, r.seed)
}

// clusterLayers measures the remote layer, which only a sharded
// deployment runs: a coordinator and two nodes owning two of four shards
// of the serve spectrum each, all in this process on loopback listeners,
// with repro serve -coordinator's client and retry policy. 25-read
// chunks (the CI cluster smoke test's size) are sent one at a time, each
// checked against the single-node answer, and a 512-kmer CountMany batch
// is priced.
func (r *run) clusterLayers(sv *served, svc *reptile.Service) error {
	const shards, nodes, chunkSize = 4, 2, 25
	_, views, err := kspectrum.SplitShards(sv.spec, shards)
	if err != nil {
		return err
	}
	base := filepath.Join(r.dir, "main")
	for i, v := range views {
		if err := kspectrum.WriteSpectrumFile(kspectrum.ShardFileName(base, i, shards), v); err != nil {
			return err
		}
	}
	tg := &target{url: "/v2/correct?engine=reptile&spectrum=main"}
	for _, ch := range chunkReads(sv.c.reads[:min(len(sv.c.reads), r.sc.ReplayChunks*chunkSize)], chunkSize) {
		body, err := fastq.EncodeChunk(ch)
		if err != nil {
			return err
		}
		out, _, err := svc.CorrectChunkCtx(context.Background(), ch, 1)
		if err != nil {
			return err
		}
		want, err := fastq.EncodeChunk(out)
		if err != nil {
			return err
		}
		tg.chunks, tg.want, tg.reads = append(tg.chunks, body), append(tg.want, want), append(tg.reads, len(ch))
	}

	wc := &wireCounter{base: http.DefaultTransport.(*http.Transport).Clone(), run: r}
	defer wc.base.(*http.Transport).CloseIdleConnections()
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	var urls []string
	for n := 0; n < nodes; n++ {
		loaded := make(map[string]*kspectrum.Spectrum)
		meta := make(map[string]remote.ShardInfo)
		for i := n * shards / nodes; i < (n+1)*shards/nodes; i++ {
			m, err := kspectrum.OpenMapped(kspectrum.ShardFileName(base, i, shards))
			if err != nil {
				return err
			}
			stops = append(stops, func() { m.Close() })
			entry := kspectrum.ShardEntryName("main", i, shards)
			loaded[entry] = m
			meta[entry] = remote.ShardInfo{
				Spectrum: "main", Shard: i, Of: shards, Entry: entry,
				K: m.K, BothStrands: m.BothStrands, Kmers: m.Size(),
			}
		}
		opts := daemonOptions()
		opts.ShardEntries = meta
		h, err := cli.NewHandler(loaded, opts)
		if err != nil {
			return err
		}
		d, err := r.startDaemon(h)
		if err != nil {
			return err
		}
		stops = append(stops, d.close)
		urls = append(urls, d.url)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	maps, err := remote.Discover(ctx, &http.Client{Timeout: 5 * time.Second}, urls)
	cancel()
	if err != nil {
		return err
	}
	rs, err := remote.New(maps["main"], remote.Options{
		HTTP:   &http.Client{Timeout: 15 * time.Second, Transport: wc},
		Policy: client.Policy{MaxRetries: 2, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second},
	})
	if err != nil {
		return err
	}
	opts := daemonOptions()
	opts.RemoteSpectra = map[string]*remote.RemoteSpectrum{"main": rs}
	h, err := cli.NewHandler(map[string]*kspectrum.Spectrum{}, opts)
	if err != nil {
		return err
	}
	coord, err := r.startDaemon(h)
	if err != nil {
		return err
	}
	stops = append(stops, coord.close)

	tr := r.tr()
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	var trips, wire []float64
	for j := range tg.chunks {
		sp := tr.beginReq("cluster.request", spanRef{}, int64(j+1))
		wc.setParent(sp)
		trips0, bytes0 := wc.trips.Load(), wc.bytes.Load()
		r.op(tg.send(hc, coord.url, j))
		wc.setParent(spanRef{})
		tr.end(sp, nil)
		trips = append(trips, float64(wc.trips.Load()-trips0))
		wire = append(wire, float64(wc.bytes.Load()-bytes0))
	}
	r.set("remote.round_trips_per_chunk", median(trips))
	r.set("remote.wire_bytes_per_chunk", median(wire))
	r.set("remote.retries", float64(wc.trips.Load()-wc.ok.Load()))
	wc.mu.Lock()
	r.set("remote.query_ms", median(wc.durMS))
	wc.mu.Unlock()
	r.logf("cluster: %d chunks of %d reads through a coordinator over %d nodes: %.0f shard round trips and %.0f wire bytes per chunk (median)",
		len(tg.chunks), chunkSize, nodes, median(trips), median(wire))
	return r.countMany(rs, sv.c.reads)
}

// countMany prices one 512-kmer CountMany batch through the fan-out
// backend: its median time and the allocations per batch, which include
// the in-process nodes' side of the wire.
func (r *run) countMany(rs *remote.RemoteSpectrum, reads []seq.Read) error {
	const batch = 512
	kms := make([]seq.Kmer, 0, batch)
	for _, rd := range reads {
		if len(kms) == batch {
			break
		}
		if km, ok := seq.Pack(rd.Seq, rs.K()); ok {
			kms = append(kms, km)
		}
	}
	counts := make([]uint32, len(kms))
	sp := r.tr().begin("remote.countmany_512", spanRef{})
	defer r.tr().end(sp, map[string]int64{"kmers": int64(len(kms))})
	var times []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(r.phase(0.1, 200*time.Millisecond))
	for len(times) < 20 || time.Now().Before(deadline) {
		t0 := time.Now()
		err := rs.CountManyCtx(context.Background(), kms, counts)
		times = append(times, time.Since(t0).Seconds())
		r.op(err)
		if err != nil {
			return nil
		}
	}
	runtime.ReadMemStats(&after)
	r.set("remote.countmany_512_us", 1e6*median(times))
	r.set("remote.countmany_512_allocs", float64(after.Mallocs-before.Mallocs)/float64(len(times)))
	return nil
}

// setRSS reports this process's peak RSS since the inputs were made:
// the daemons, the load generator and the inputs they hold together.
func (r *run) setRSS() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}
