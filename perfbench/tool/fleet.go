package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/experiment"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// fleetWorkers is the worker count of the traced fleet, matching the
// CLI workload's two -worker processes.
const fleetWorkers = 2

// replayUploads bounds how many uploaded snapshots are kept for the
// serial allocation replay (coord.alloc_mb_per_upload).
const replayUploads = 32

// spanHeader carries a worker request's span ID to the coordinator.
const spanHeader = "Perfbench-Span"

// coordMetrics lists the coordinator-layer metrics with their units.
var coordMetrics = []struct{ name, unit string }{
	{"coord.lease_rtt_ms", "ms"}, {"coord.lease_busy_us", "us"},
	{"coord.complete_rtt_ms", "ms"}, {"coord.complete_busy_ms", "ms"},
	{"coord.alloc_mb_per_upload", "MB"}, {"coord.leases", "count"},
	{"coord.lease_waits", "count"}, {"coord.redispatches", "count"},
	{"coord.duplicates", "count"}, {"coord.accept_ratio", "ratio"},
}

// upload is one captured /complete request body.
type upload struct {
	cell    int
	payload []byte
}

// fleetStats accumulates coordinator-side and worker-side request
// timings and outcomes.
type fleetStats struct {
	tr   *tracer
	root int

	mu         sync.Mutex
	busy       map[string]durations // server handler time by path
	rtt        map[string]durations // client round trip by path
	granted    int
	waits      int
	completes  int
	duplicates int
	uploads    []upload
}

// serverWrap times every request the coordinator's handler serves and
// reads lease and completion outcomes off the responses.
func (f *fleetStats) serverWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &recorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		end := time.Now()
		path := r.URL.Path
		parent := f.root
		if id, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			parent = id
		}
		f.tr.add("coord.serve"+path, start, end, parent)
		f.mu.Lock()
		defer f.mu.Unlock()
		f.busy[path] = append(f.busy[path], end.Sub(start))
		switch path {
		case coord.PathLease:
			var lr coord.LeaseResponse
			if json.Unmarshal(rec.body.Bytes(), &lr) == nil {
				switch lr.Status {
				case coord.StatusGranted:
					f.granted++
				case coord.StatusWait:
					f.waits++
				}
			}
		case coord.PathComplete:
			f.completes++
			var cr coord.CompleteResponse
			if rec.status == 0 || rec.status == http.StatusOK {
				if json.Unmarshal(rec.body.Bytes(), &cr) == nil && cr.Duplicate {
					f.duplicates++
				}
			}
		}
	})
}

// recorder keeps a copy of a response's status and body.
type recorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

// transport is a worker's instrumented HTTP transport: it times each
// round trip (request sent to response headers) and keeps the first
// uploaded snapshots for the allocation replay.
type transport struct {
	f    *fleetStats
	span int // the worker's span, parent of its request spans
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if path == coord.PathComplete && req.GetBody != nil {
		t.f.capture(req)
	}
	// The request carries its span's ID, so the coordinator-side span
	// of the same request names it as parent.
	id := t.f.tr.reserve("coord.request"+path, t.span)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	t.f.tr.finish(id, start, end)
	t.f.mu.Lock()
	t.f.rtt[path] = append(t.f.rtt[path], end.Sub(start))
	t.f.mu.Unlock()
	return resp, err
}

func (f *fleetStats) capture(req *http.Request) {
	f.mu.Lock()
	full := len(f.uploads) >= replayUploads
	f.mu.Unlock()
	if full {
		return
	}
	cell, err := strconv.Atoi(req.URL.Query().Get("cell"))
	if err != nil {
		return
	}
	body, err := req.GetBody()
	if err != nil {
		return
	}
	payload, err := io.ReadAll(body)
	if err != nil {
		return
	}
	f.mu.Lock()
	if len(f.uploads) < replayUploads {
		f.uploads = append(f.uploads, upload{cell: cell, payload: payload})
	}
	f.mu.Unlock()
}

// runFleet serves the grid from an in-process coordinator on a loopback
// listener, works it with two in-process workers, and records the
// coordinator-layer metrics. Like ronsim -sweep -serve, the coordinator
// persists snapshots and store rows under out, and the manifest is
// written after the drain.
func runFleet(tr *tracer, root int, m metrics, opts []experiment.Option, out string, cellDone func(core.CellResult)) (*core.Sweep, *core.SweepResult, *fleetStats, error) {
	e, err := experiment.New(opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := e.Sweep()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, nil, err
	}
	store, err := resultstore.Open(resultstore.SegmentPath(out))
	if err != nil {
		return nil, nil, nil, err
	}
	defer store.Close()
	c, err := coord.New(coord.Config{Sweep: s, OutDir: out, Results: store, OnCellDone: cellDone})
	if err != nil {
		return nil, nil, nil, err
	}
	f := &fleetStats{tr: tr, root: root, busy: map[string]durations{},
		rtt: map[string]durations{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: f.serverWrap(coord.NewServer(c).Handler())}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, fleetWorkers)
	for i := range fleetWorkers {
		name := fmt.Sprintf("w%d", i)
		span := tr.reserve("coord.worker "+name, root)
		client := &http.Client{Transport: &transport{f: f, span: span,
			base: http.DefaultTransport.(*http.Transport).Clone()}}
		w := coord.NewWorker(url, coord.WithName(name), coord.WithHTTPClient(client))
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			werrs[i] = w.Run(ctx)
			tr.finish(span, start, time.Now())
		}()
	}
	select {
	case <-c.Done():
	case err = <-serveErr:
	}
	// The grid is done: a worker still polling for work has nothing
	// left to do (ronsim's coordinator exits here and its workers give
	// up on their own), so stop both.
	cancel()
	wg.Wait()
	prog, perr := fetchProgress(url)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	srv.Shutdown(shutCtx)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, werr := range werrs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return nil, nil, nil, werr
		}
	}
	if perr != nil {
		return nil, nil, nil, perr
	}
	if err := c.Err(); err != nil {
		return nil, nil, nil, err
	}
	res := c.Result()
	if err := writeManifest(res, out); err != nil {
		return nil, nil, nil, err
	}
	f.report(m, prog)
	return s, res, f, nil
}

func fetchProgress(url string) (coord.Progress, error) {
	var p coord.Progress
	resp, err := http.Get(url + coord.PathProgress)
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	return p, json.NewDecoder(resp.Body).Decode(&p)
}

// writeManifest records the grid with canonical snapshot paths, as the
// coordinator-side ronsim does after the drain.
func writeManifest(res *core.SweepResult, out string) error {
	return res.Manifest(nil, func(c core.Cell) string { return core.CellSnapshotRelPath(c.Name()) }).Write(out)
}

// report sets the coordinator-layer metrics from the recorded requests
// and the final /progress counters.
func (f *fleetStats) report(m metrics, prog coord.Progress) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m.set("coord.lease_rtt_ms", ms(f.rtt[coord.PathLease].quantile(0.5)), "ms")
	m.set("coord.lease_busy_us", us(f.busy[coord.PathLease].quantile(0.5)), "us")
	m.set("coord.complete_rtt_ms", ms(f.rtt[coord.PathComplete].quantile(0.5)), "ms")
	m.set("coord.complete_busy_ms", ms(f.busy[coord.PathComplete].quantile(0.5)), "ms")
	m.set("coord.leases", float64(f.granted), "count")
	m.set("coord.lease_waits", float64(f.waits), "count")
	m.set("coord.redispatches", float64(prog.RedispatchedLeases), "count")
	m.set("coord.duplicates", float64(f.duplicates), "count")
	accept := 0.0
	if f.completes > 0 {
		accept = float64(f.completes-f.duplicates) / float64(f.completes)
	}
	m.set("coord.accept_ratio", accept, "ratio")
}

// replay feeds the captured uploads serially to a second coordinator
// over the same grid (persisting into dir) and reports the heap
// allocated per accepted upload: decode, restore, persist and store
// append, with nothing else running.
func (f *fleetStats) replay(m metrics, s *core.Sweep, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := resultstore.Open(resultstore.SegmentPath(dir))
	if err != nil {
		return err
	}
	defer store.Close()
	c, err := coord.New(coord.Config{Sweep: s, OutDir: dir, Results: store})
	if err != nil {
		return err
	}
	if len(f.uploads) == 0 {
		return fmt.Errorf("no uploads captured")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, u := range f.uploads {
		if _, err := c.Complete(u.cell, u.payload, 0); err != nil {
			return fmt.Errorf("replaying cell %d: %w", u.cell, err)
		}
	}
	runtime.ReadMemStats(&after)
	m.set("coord.alloc_mb_per_upload", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(f.uploads))/(1<<20), "MB")
	return nil
}
