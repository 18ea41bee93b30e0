package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the system.
// Spans of one request share Req; every span of a run shares Run.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Run    string           `json:"run"`
	Req    int64            `json:"req,omitempty"`
	Start  int64            `json:"start_ns"` // since the tracer's epoch
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run writes them
// out. A nil *tracer records nothing.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// spanRef is an open span; the zero value is "no span".
type spanRef struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// begin opens a span under parent (zero for a root); it inherits the
// parent's request id.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	return t.beginReq(name, parent, parent.req)
}

// beginReq opens a span carrying request id req.
func (t *tracer) beginReq(name string, parent spanRef, req int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return spanRef{id: id, parent: parent.id, req: req, name: name, start: time.Now()}
}

// end closes s, recording the counts observed at its boundary.
func (t *tracer) end(s spanRef, counts map[string]int64) {
	if t == nil || s.id == 0 {
		return
	}
	end := time.Now()
	t.add(span{
		ID: s.id, Parent: s.parent, Name: s.name, Run: t.run, Req: s.req,
		Start: s.start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Counts: counts,
	})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// adopt takes over spans a child process recorded against its own epoch
// (Unix nanoseconds), re-numbering them and hanging its roots under
// parent.
func (t *tracer) adopt(spans []span, epochUnixNano int64, parent spanRef) {
	if t == nil {
		return
	}
	shift := epochUnixNano - t.epoch.UnixNano()
	t.mu.Lock()
	base := t.next
	for _, s := range spans {
		t.next = max(t.next, base+s.ID)
	}
	t.mu.Unlock()
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		} else {
			s.Parent = parent.id
		}
		if s.Req == 0 {
			s.Req = parent.req
		}
		s.Run = t.run
		s.Start += shift
		s.End += shift
		t.add(s)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations lists the durations (seconds) of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// total is the summed duration (seconds) of the spans named name.
func (t *tracer) total(name string) float64 { return sum(t.durations(name)) }

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	n           int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its children cover.
func (t *tracer) selfTimes() []layerTime {
	spans := t.snapshot()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	var order []string
	for _, s := range spans {
		row, ok := rows[s.Name]
		if !ok {
			row = &layerTime{name: s.Name}
			rows[s.Name] = row
			order = append(order, s.Name)
		}
		d := time.Duration(s.End - s.Start)
		row.n++
		row.total += d
		row.self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		default:
			curB = max(curB, v.b)
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// report prints the self-time table and writes every span, one JSON
// object a line, under root/.bench_build/trace.
func (t *tracer) report(w io.Writer, root, workload string, seed int64) error {
	fmt.Fprintf(w, "# self time by layer (%s, seed %d):\n", workload, seed)
	fmt.Fprintf(w, "# %-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, row := range t.selfTimes() {
		fmt.Fprintf(w, "# %-28s %8d %12.3f %12.3f\n", row.name, row.n,
			float64(row.total.Microseconds())/1e3, float64(row.self.Microseconds())/1e3)
	}
	dir := filepath.Join(root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "# spans written to %s\n", path)
	return nil
}
