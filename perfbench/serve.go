package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/reference"
	"nvmllc/internal/serve"
	"nvmllc/internal/telemetry"
)

// serve-cold-warm: llcsimd's traffic, in process. A serve.Server is
// wired as cmd/llcsimd wires it (DiskCache in a temp dir, one server
// worker, loopback listener) and driven by closed-loop clients, each
// waiting for a job's result before submitting the next, as llcsimd's
// callers do. Three phases:
//
//   - cold: every (workload, Table III model, config block) spec once,
//     in seeded order, so every job simulates and persists;
//   - disk: repeated restarts, each reopening the DiskCache with a new
//     engine and server and making one pass over every key;
//   - warm: repeated passes answered from the in-memory cache.
//
// Disk and warm run no simulation: they exercise only the key, hit,
// store, HTTP and JSON paths.
const (
	serveAccesses      = 20_000
	serveCheckAccesses = 2_000
	serveSmokeAccesses = 1_000
	serveClients       = 2
	// servePoll is the fixed poll interval of a waiting client.
	servePoll = 500 * time.Microsecond
	// serveOrderSeed fixes the order of the cold phase's specs.
	serveOrderSeed = 1
)

// serveSpecs is the cold phase: every workload on every Table III model
// of both config blocks, once each. The seed is every job's trace seed.
// The order is shuffled once by a fixed seed, the same for every run:
// a seeded order would change which jobs queue behind which and when
// the largest LLCs are live together, and so move the latency
// percentiles and the peak RSS from seed to seed.
func serveSpecs(seed int64, accesses int) []serve.JobSpec {
	var specs []serve.JobSpec
	for _, block := range []struct {
		name   string
		models []string
	}{
		{"cap", modelNames(reference.FixedCapacityModels())},
		{"area", modelNames(reference.FixedAreaModels())},
	} {
		for _, w := range reference.Workloads() {
			for _, m := range block.models {
				specs = append(specs, serve.JobSpec{
					Workload: w.Name, LLC: m, Config: block.name, Accesses: accesses, Seed: seed,
				})
			}
		}
	}
	rand.New(rand.NewSource(serveOrderSeed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

func modelNames(models []nvsim.LLCModel) []string {
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	return names
}

// instance is one booted server.
type instance struct {
	eng    *engine.Engine
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

// bootServer is the serve-cold-warm set-up: DiskCache open (with its
// boot index), engine, server and listener, as cmd/llcsimd does it.
func bootServer(dir string, progress func(engine.Event)) (*instance, time.Duration, error) {
	t0 := time.Now()
	store, err := engine.OpenDiskCache(dir)
	if err != nil {
		return nil, 0, err
	}
	opts := []engine.Option{engine.WithStore(store)}
	if progress != nil {
		opts = append(opts, engine.WithProgress(progress))
	}
	eng := engine.New(opts...)
	srv, err := serve.New(serve.Config{Engine: eng, Workers: 1})
	if err != nil {
		return nil, 0, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // no jobs yet; nothing to drain
		return nil, 0, err
	}
	in := &instance{eng: eng, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + lis.Addr().String(), served: make(chan error, 1)}
	go func() { in.served <- in.hs.Serve(lis) }()
	return in, time.Since(t0), nil
}

// close stops the listener and drains the server, then waits for the
// serve goroutine to exit.
func (in *instance) close(ctx context.Context) error {
	herr := in.hs.Shutdown(ctx)
	serr := in.srv.Shutdown(ctx)
	if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(herr, serr, err)
	}
	return errors.Join(herr, serr)
}

// jobRun is one client-observed job.
type jobRun struct {
	ok        bool
	why       string
	key       string
	latency   time.Duration
	polls     int
	bodyBytes int
	digest    string
	rejected  bool
}

// client is one closed-loop caller.
type client struct {
	hc   *http.Client
	base string
	// tr receives per-job spans (cold phase of a traced run only).
	tr *tracer
	// timeHTTP collects every request's round trip into httpDur.
	timeHTTP bool
	httpDur  []time.Duration
}

type jobView struct {
	ID     string       `json:"id"`
	Status serve.Status `json:"status"`
	Key    string       `json:"key"`
	Error  string       `json:"error"`
}

// request performs one HTTP call and reads the whole body.
func (c *client) request(ctx context.Context, method, path string, body []byte, name string, parent *telemetry.Span) (int, []byte, error) {
	span := c.tr.start(name, parent)
	defer span.End()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if c.timeHTTP {
		c.httpDur = append(c.httpDur, time.Since(t0))
	}
	return resp.StatusCode, b, err
}

// run submits one spec, polls until it is terminal and reads its
// result. Latency runs from the POST until the result body is read.
func (c *client) run(ctx context.Context, spec serve.JobSpec, parent *telemetry.Span) jobRun {
	var r jobRun
	span := c.tr.start("job", parent)
	defer span.End()
	body, err := json.Marshal(spec)
	if err != nil {
		r.why = err.Error()
		return r
	}
	t0 := time.Now()
	code, b, err := c.request(ctx, http.MethodPost, "/v1/jobs", body, "http.post", span)
	if err != nil || code != http.StatusAccepted {
		r.rejected = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
		r.why = fmt.Sprintf("submit: code %d err %v body %s", code, err, b)
		return r
	}
	var v jobView
	if err := json.Unmarshal(b, &v); err != nil {
		r.why = "submit: " + err.Error()
		return r
	}
	r.key = v.Key
	for !v.Status.Terminal() {
		if r.polls > 0 {
			time.Sleep(servePoll)
		}
		r.polls++
		code, b, err = c.request(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil, "http.poll", span)
		if err != nil || code != http.StatusOK {
			r.why = fmt.Sprintf("poll: code %d err %v", code, err)
			return r
		}
		if err := json.Unmarshal(b, &v); err != nil {
			r.why = "poll: " + err.Error()
			return r
		}
	}
	if v.Status != serve.StatusDone {
		r.why = "job " + string(v.Status) + ": " + v.Error
		return r
	}
	code, b, err = c.request(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil, "http.result", span)
	r.latency = time.Since(t0)
	if err != nil || code != http.StatusOK {
		r.why = fmt.Sprintf("result: code %d err %v", code, err)
		return r
	}
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &res); err != nil || len(res.Result) == 0 {
		r.why = fmt.Sprintf("result body: %v", err)
		return r
	}
	r.ok, r.bodyBytes, r.digest = true, len(b), digest(res.Result)
	return r
}

// serveWindow is the ledger unit of a phase: the time from dispatching
// job k·serveWindow to dispatching job (k+1)·serveWindow.
const serveWindow = 5

// phaseRun is one pass of the clients over every spec.
type phaseRun struct {
	runs    []jobRun
	httpDur []time.Duration
}

// phase runs every spec once over serveClients closed-loop clients,
// charging each window of serveWindow dispatched jobs to led, and
// returns the runs in spec order.
func phase(ctx context.Context, base string, specs []serve.JobSpec, led *ledger, tr *tracer, name string, perJobSpans bool) phaseRun {
	runs := make([]jobRun, len(specs))
	marks := make([]stopwatch, (len(specs)+serveWindow-1)/serveWindow+1)
	clients := make([]*client, serveClients)
	span := tr.start(name, nil)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range clients {
		c := &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}, base: base, timeHTTP: tr != nil}
		if perJobSpans {
			c.tr = tr
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(specs) || ctx.Err() != nil {
					return
				}
				if k%serveWindow == 0 {
					marks[k/serveWindow] = startWatch()
				}
				runs[k] = c.run(ctx, specs[k], span)
				c.tr.drain()
			}
		}()
	}
	wg.Wait()
	marks[len(marks)-1] = startWatch()
	span.End()
	tr.drain()
	for w := 0; w+1 < len(marks); w++ {
		led.add(fmt.Sprint(w), marks[w+1].wall.Sub(marks[w].wall), marks[w+1].cpu-marks[w].cpu)
	}
	pr := phaseRun{runs: runs}
	for _, c := range clients {
		c.hc.CloseIdleConnections()
		pr.httpDur = append(pr.httpDur, c.httpDur...)
	}
	return pr
}

// serveRoundSeconds is the nominal length of one cold/disk/warm round.
const serveRoundSeconds = 3.3

// serveWarmPasses is how many warm passes a round makes.
const serveWarmPasses = 2

// serveRun is the outcome of the three phases.
type serveRun struct {
	cold, disk, warm *ledger
	lat              *ledger      // latency per spec
	boots            []float64    // restart set-ups
	rss              []float64    // peak of each cold pass
	coldStats        engine.Stats // of the first round
	coldDigests      []string
	execNS           map[string]int64 // engine time per simulated key, minimum over rounds
	keys             []string         // per spec
	polls, bytes     []int            // per spec, first round
	httpDur          []time.Duration
	rejected         int
}

// runServe makes its rounds. A round is one cold pass
// on a fresh store and server, bootsPerRound restarts on that store
// (the last one serves the disk pass) and serveWarmPasses warm passes
// on the restarted server.
func runServe(ctx context.Context, specs []serve.JobSpec, rs rounds, tr *tracer, t *tally) (*serveRun, error) {
	sr := &serveRun{cold: newLedger(), disk: newLedger(), warm: newLedger(), lat: newLedger(), execNS: map[string]int64{}}
	var execMu sync.Mutex
	progress := func(ev engine.Event) {
		if ev.Cached {
			return
		}
		execMu.Lock()
		defer execMu.Unlock()
		if old, ok := sr.execNS[ev.Key]; !ok || ev.WallNS < old {
			sr.execNS[ev.Key] = ev.WallNS
		}
	}
	account := func(pr phaseRun, phaseName string) {
		sr.httpDur = append(sr.httpDur, pr.httpDur...)
		for i, r := range pr.runs {
			if r.rejected {
				sr.rejected++
			}
			want := r.digest
			if sr.coldDigests != nil {
				want = sr.coldDigests[i]
			}
			t.op(r.ok && r.digest == want, "serve-cold-warm %s job %d (%s on %s/%s): %s; result digest %.12s, cold %.12s",
				phaseName, i, specs[i].Workload, specs[i].LLC, specs[i].Config, r.why, r.digest, want)
		}
	}
	for r := 0; rs.more(r); r++ {
		if err := serveRound(ctx, specs, sr, progress, account, tr, t); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

func serveRound(ctx context.Context, specs []serve.JobSpec, sr *serveRun, progress func(engine.Event), account func(phaseRun, string), tr *tracer, t *tally) error {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Cold: every spec simulates and persists.
	first := sr.coldDigests == nil
	rssWindow()
	in, _, err := bootServer(dir, progress)
	if err != nil {
		return err
	}
	pr := phase(ctx, in.base, specs, sr.cold, tr, "phase.cold", true)
	sr.rss = append(sr.rss, peakRSSMiB())
	account(pr, "cold")
	for i, r := range pr.runs {
		if r.ok {
			sr.lat.add(fmt.Sprint(i), r.latency, 0)
		}
	}
	if first {
		sr.coldStats = in.eng.Stats()
		for _, r := range pr.runs {
			sr.coldDigests = append(sr.coldDigests, r.digest)
			sr.keys = append(sr.keys, r.key)
			sr.polls = append(sr.polls, r.polls)
			sr.bytes = append(sr.bytes, r.bodyBytes)
		}
	}
	if err := in.close(ctx); err != nil {
		return err
	}

	// Disk: restarts boot on the populated store; the last one answers
	// every key once from disk.
	for b := 0; b < bootsPerRound; b++ {
		var boot time.Duration
		if in, boot, err = bootServer(dir, nil); err != nil {
			return err
		}
		sr.boots = append(sr.boots, boot.Seconds())
		if b < bootsPerRound-1 {
			if err := in.close(ctx); err != nil {
				return err
			}
		}
	}
	account(phase(ctx, in.base, specs, sr.disk, tr, "phase.disk", false), "disk")

	// Warm: the restarted engine now holds every result in memory.
	for p := 0; p < serveWarmPasses; p++ {
		account(phase(ctx, in.base, specs, sr.warm, tr, "phase.warm", false), "warm")
	}
	s := in.eng.Stats()
	t.op(s.Simulated+s.Upgraded == 0, "serve-cold-warm restarted server simulated %d design points; want 0", s.Simulated+s.Upgraded)
	return in.close(ctx)
}

func serveCheck(ctx context.Context, seed int64) (map[string]string, error) {
	all := serveSpecs(seed, serveCheckAccesses)
	var specs []serve.JobSpec
	for i := 0; i < len(all); i += 20 {
		specs = append(specs, all[i])
	}
	t := &tally{}
	sr, err := runServe(ctx, specs, rounds{n: 1}, nil, t)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for i, d := range sr.coldDigests {
		if t.failed > 0 {
			// A job failed or a disk or warm answer differed from the
			// cold one: the recorded digests cannot match.
			d = "inconsistent:" + d
		}
		s := specs[i]
		out[fmt.Sprintf("%03d.%s.%s.%s", i, s.Workload, s.LLC, s.Config)] = d
	}
	return out, nil
}

func serveMeasure(ctx context.Context, rc runConfig, tr *tracer) (*measurement, error) {
	accesses := serveAccesses
	if rc.smoke {
		accesses = serveSmokeAccesses
	}
	specs := serveSpecs(rc.seed, accesses)
	sr, err := runServe(ctx, specs, newRounds(rc, serveRoundSeconds), tr, rc.tally)
	if err != nil {
		return nil, err
	}
	coldWall, coldCPU := sr.cold.total("")
	diskWall, diskCPU := sr.disk.total("")
	warmWall, warmCPU := sr.warm.total("")
	n := float64(len(specs))
	lat := sr.lat.ms()
	m := &measurement{
		metrics: map[string]metric{
			"setup_s":         {median(sr.boots), "s"},
			"wall_s":          {(coldWall + diskWall + warmWall).Seconds(), "s"},
			"cpu_s":           {(coldCPU + diskCPU + warmCPU).Seconds(), "s"},
			"peak_rss_mb":     {mean(sr.rss), "MiB"},
			"accesses_per_s":  {float64(sr.coldStats.Accesses) / coldWall.Seconds(), "1/s"},
			"cold_jobs_per_s": {n / coldWall.Seconds(), "1/s"},
			"cold_p50_ms":     {quantile(lat, 0.5), "ms"},
			"cold_p90_ms":     {quantile(lat, 0.9), "ms"},
			"disk_jobs_per_s": {n / diskWall.Seconds(), "1/s"},
			"warm_jobs_per_s": {n / warmWall.Seconds(), "1/s"},
		},
		wall: (coldWall + diskWall + warmWall).Seconds(),
	}
	if tr != nil {
		m.layers = serveLayers(sr)
	}
	return m, nil
}

// serveLayers is the serving part of the ledger, from the cold phase.
func serveLayers(sr *serveRun) map[string]float64 {
	var exec, wait []float64
	var polls, bytes float64
	for i, key := range sr.keys {
		e := float64(sr.execNS[key]) / 1e6
		exec = append(exec, e)
		wait = append(wait, float64(sr.lat.wall[fmt.Sprint(i)].Nanoseconds())/1e6-e)
		polls += float64(sr.polls[i])
		bytes += float64(sr.bytes[i])
	}
	var rtts []float64
	for _, d := range sr.httpDur {
		rtts = append(rtts, float64(d.Nanoseconds())/1e3)
	}
	var sim float64
	for _, ns := range sr.execNS {
		sim += float64(ns) / 1e9
	}
	n := float64(max(1, len(sr.keys)))
	l := map[string]float64{
		"serve.exec_ms":       median(exec),
		"serve.queue_wait_ms": median(wait),
		"serve.http_us":       median(rtts),
		"serve.polls_per_job": polls / n,
		"serve.result_kb":     bytes / n / 1024,
		"serve.rejected":      float64(sr.rejected),
		"engine.sim_s":        sim,
	}
	addEngineCounts(l, sr.coldStats)
	return l
}
