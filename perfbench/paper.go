package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/sweep"
	"nvmllc/internal/system"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// paper-exact: every sweep registry artifact, in registry order (the
// cmd/figures -all order, plus fig4measured), rendered, on one engine
// with a single worker — the run a researcher makes to regenerate the
// paper. One worker keeps layer times additive and leaves the second
// CPU to the streaming producer and the GC.
//
// Cold passes regenerate everything on a fresh engine. Disk passes
// regenerate it on a fresh engine whose DiskCache holds the cold
// results, as an artifact job on a restarted llcsimd would; warm passes
// regenerate it on the last disk engine, whose memory now holds every
// result. Every pass renders byte-identical text.
const (
	paperAccesses      = 10_000
	paperCheckAccesses = 2_000
	paperSmokeAccesses = 500
)

// paperRoundSeconds is the nominal length of one cold/disk/warm round.
const paperRoundSeconds = 3.0

// unitClock charges the work between consecutive engine events to one
// ledger unit per design point (artifact/index), in the engine's
// deterministic single-worker order.
type unitClock struct {
	led      *ledger
	lat      *ledger // engine time per simulated design point, cold passes only
	results  map[string]*system.Result
	artifact string
	idx      int
	sw       stopwatch
}

func (u *unitClock) event(ev engine.Event) {
	w, c := u.sw.lap()
	unit := fmt.Sprintf("%s/%04d", u.artifact, u.idx)
	u.idx++
	u.led.add(unit, w, c)
	if ev.Err != nil || ev.Cached {
		return
	}
	if u.lat != nil {
		u.lat.add(unit, time.Duration(ev.WallNS), 0)
	}
	if u.results != nil && ev.Key != "" {
		u.results[ev.Key] = ev.Result // an upgrade replaces the timeline-less entry
	}
}

// newPaperEngine builds the engine cmd/figures builds before its first
// artifact (plus the benchmark's progress hook and optional store).
func newPaperEngine(clk *unitClock, store engine.CacheStore, tr *tracer) *engine.Engine {
	opts := []engine.Option{engine.WithParallelism(1), engine.WithProgress(clk.event)}
	if store != nil {
		opts = append(opts, engine.WithStore(store))
	}
	if reg := tr.registry(); reg != nil {
		opts = append(opts, engine.WithTelemetry(reg))
	}
	return engine.New(opts...)
}

// paperPass regenerates every artifact once on eng, charging each
// design point and each artifact's remaining work to led, and returns
// the digest of every rendered artifact.
func paperPass(ctx context.Context, eng *engine.Engine, opts workload.Options, clk *unitClock, led *ledger, tr *tracer) (map[string]string, error) {
	cfg := sweep.Config{Opts: opts, Engine: eng}
	digests := map[string]string{}
	clk.led, clk.sw = led, startWatch()
	passSpan := tr.start("pass", nil)
	var buf bytes.Buffer
	for _, a := range sweep.Artifacts() {
		clk.artifact, clk.idx = a.Name, 0
		span := tr.start("sweep."+a.Name, passSpan)
		res, err := sweep.Run(telemetry.ContextWithSpan(ctx, span), a.Name, cfg)
		if err != nil {
			return nil, fmt.Errorf("artifact %s: %w", a.Name, err)
		}
		buf.Reset()
		for _, r := range res.Renderers {
			if err := r.Render(&buf); err != nil {
				return nil, fmt.Errorf("render %s: %w", a.Name, err)
			}
			buf.WriteByte('\n')
		}
		span.End()
		w, c := clk.sw.lap()
		led.add(a.Name+"/rest", w, c)
		tr.drain()
		digests[a.Name] = digest(buf.Bytes())
	}
	passSpan.End()
	tr.drain()
	return digests, nil
}

// exactCounts renders the engine counters that must repeat exactly for
// a fixed input (everything except host time).
func exactCounts(s engine.Stats) string {
	return fmt.Sprintf("simulated=%d cached=%d upgraded=%d failed=%d accesses=%d trace_gens=%d trace_shared=%d profiles=%d profile_hits=%d",
		s.Simulated, s.Cached, s.Upgraded, s.Failed, s.Accesses, s.TraceGens, s.TraceShared, s.Profiles, s.ProfileHits)
}

func paperCheck(ctx context.Context, seed int64) (map[string]string, error) {
	clk := &unitClock{}
	eng := newPaperEngine(clk, nil, nil)
	d, err := paperPass(ctx, eng, workload.Options{Accesses: paperCheckAccesses, Seed: seed}, clk, newLedger(), nil)
	if err != nil {
		return nil, err
	}
	d["engine.counts"] = digest([]byte(exactCounts(eng.Stats())))
	return d, nil
}

func paperMeasure(ctx context.Context, rc runConfig, tr *tracer) (*measurement, error) {
	opts := workload.Options{Accesses: paperAccesses, Seed: rc.seed}
	if rc.smoke {
		opts.Accesses = paperSmokeAccesses
	}
	t := rc.tally
	cold, disk, warm := newLedger(), newLedger(), newLedger()
	clk := &unitClock{}
	lat := newLedger()
	var first map[string]string
	var coldStats engine.Stats
	var diskJobs, warmJobs uint64
	var rss, boots []float64
	same := func(phase string, round int, d map[string]string) {
		for _, name := range unionKeys(first, d) {
			t.op(first[name] == d[name], "paper-exact %s pass in round %d: %s differs from cold pass 1", phase, round, name)
		}
	}
	dir, err := os.MkdirTemp("", "perfbench-paper-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rs := newRounds(rc, paperRoundSeconds)
	for r := 0; rs.more(r); r++ {
		// Cold: a fresh engine regenerates everything.
		rssWindow()
		eng := newPaperEngine(clk, nil, tr)
		clk.lat = lat
		if r == 0 {
			clk.results = map[string]*system.Result{}
		}
		d, err := paperPass(ctx, eng, opts, clk, cold, tr)
		if err != nil {
			return nil, err
		}
		rss = append(rss, peakRSSMiB())
		if r == 0 {
			first, coldStats = d, eng.Stats()
			t.op(coldStats.Failed == 0, "paper-exact: %d design points failed", coldStats.Failed)
			// Persist the cold results, as llcsimd would have while
			// computing them; every disk pass starts from that store.
			if err := persist(dir, clk.results); err != nil {
				return nil, err
			}
		} else {
			same("cold", r+1, d)
			t.op(exactCounts(eng.Stats()) == exactCounts(coldStats), "paper-exact cold pass in round %d: engine counts %s, round 1 %s",
				r+1, exactCounts(eng.Stats()), exactCounts(coldStats))
		}
		clk.lat, clk.results = nil, nil

		// Disk: a restarted engine answers everything from the store.
		for b := 0; b < bootsPerRound; b++ {
			t0 := time.Now()
			store, err := engine.OpenDiskCache(dir)
			if err != nil {
				return nil, err
			}
			eng = newPaperEngine(clk, store, tr)
			boots = append(boots, time.Since(t0).Seconds())
		}
		if d, err = paperPass(ctx, eng, opts, clk, disk, tr); err != nil {
			return nil, err
		}
		s := eng.Stats()
		t.op(s.Simulated+s.Upgraded == 0, "paper-exact disk pass in round %d simulated %d design points; want 0", r+1, s.Simulated+s.Upgraded)
		same("disk", r+1, d)
		diskJobs = s.Jobs()

		// Warm: the same engine again, now answering from memory.
		if d, err = paperPass(ctx, eng, opts, clk, warm, tr); err != nil {
			return nil, err
		}
		after := eng.Stats()
		t.op(after.Simulated+after.Upgraded == 0, "paper-exact warm pass in round %d simulated %d design points; want 0", r+1, after.Simulated+after.Upgraded)
		same("warm", r+1, d)
		warmJobs = after.Jobs() - s.Jobs()
	}

	wall, cpu := cold.total("")
	diskWall, _ := disk.total("")
	warmWall, _ := warm.total("")
	m := &measurement{
		metrics: map[string]metric{
			"setup_s":         {median(boots), "s"},
			"wall_s":          {wall.Seconds(), "s"},
			"cpu_s":           {cpu.Seconds(), "s"},
			"peak_rss_mb":     {mean(rss), "MiB"},
			"accesses_per_s":  {float64(coldStats.Accesses) / wall.Seconds(), "1/s"},
			"cold_jobs_per_s": {float64(coldStats.Jobs()) / wall.Seconds(), "1/s"},
			"cold_p50_ms":     {quantile(lat.ms(), 0.5), "ms"},
			"cold_p90_ms":     {quantile(lat.ms(), 0.9), "ms"},
			"disk_jobs_per_s": {float64(diskJobs) / diskWall.Seconds(), "1/s"},
			"warm_jobs_per_s": {float64(warmJobs) / warmWall.Seconds(), "1/s"},
		},
		wall: wall.Seconds(),
	}
	if tr != nil {
		m.layers = paperLayers(cold, coldStats, lat)
	}
	return m, nil
}

// persist writes results into a DiskCache at dir.
func persist(dir string, results map[string]*system.Result) error {
	store, err := engine.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	for k, r := range results {
		if err := store.Store(k, r); err != nil {
			return err
		}
	}
	return nil
}

// paperLayers is the sweep and engine part of the ledger: each
// artifact's share of wall_s, the time outside simulation, and the
// exact engine counts of one cold pass.
func paperLayers(cold *ledger, s engine.Stats, lat *ledger) map[string]float64 {
	l := map[string]float64{}
	for _, a := range sweep.ArtifactNames() {
		w, _ := cold.total(a + "/")
		l["sweep."+a+"_s"] = w.Seconds()
	}
	var simMS float64
	for _, v := range lat.ms() {
		simMS += v
	}
	wall, _ := cold.total("")
	l["engine.sim_s"] = simMS / 1e3
	l["sweep.non_sim_s"] = wall.Seconds() - simMS/1e3
	addEngineCounts(l, s)
	return l
}

func addEngineCounts(l map[string]float64, s engine.Stats) {
	l["engine.simulated"] = float64(s.Simulated)
	l["engine.cached"] = float64(s.Cached)
	l["engine.upgraded"] = float64(s.Upgraded)
	l["engine.trace_gens"] = float64(s.TraceGens)
	l["engine.trace_shared"] = float64(s.TraceShared)
	l["engine.profiles"] = float64(s.Profiles)
	l["engine.accesses"] = float64(s.Accesses)
}
