package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/fault"
	"nvmllc/internal/nvm"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// wear-stream: a few long streamed multi-threaded NPB design points on
// PCRAM and RRAM LLCs, pre-worn so that write-verify retries and way
// condemnations occur, with wear tracking and the timeline sampler on.
// The write path (fault injector, wear tracker, sampler) and the
// streaming ring do most of the work here and almost none in
// paper-exact.
var wearPoints = []struct{ workload, llc string }{
	{"cg", "Kang_P"},
	{"mg", "Oh_P"},
	{"is", "Hayakawa_R"},
	{"sp", "Zhang_R"},
}

const (
	wearAccesses      = 1_000_000
	wearCheckAccesses = 50_000
	wearSmokeAccesses = 20_000
	// wearPreWear is the pre-age as a share of the class's cell
	// endurance: old enough that the weakest cells fail verification.
	wearPreWear = 0.93
)

// wearConfig is a wear-stream design point's machine.
func wearConfig(llc string) (system.Config, error) {
	model, err := reference.ModelByName(reference.FixedCapacityModels(), llc)
	if err != nil {
		return system.Config{}, err
	}
	cfg := system.Gainestown(model)
	cfg.TrackWear = true
	cfg.Timeline = &system.TimelineConfig{}
	cfg.Fault = fault.Config{
		Options:       fault.Options{Class: model.Class},
		PreWearWrites: wearPreWear * nvm.WriteEndurance(model.Class),
	}
	return cfg, nil
}

// newWearEngine is the wear-stream engine: one worker, no trace
// sharing (the generator runs in the ring producer).
func newWearEngine(store engine.CacheStore, tr *tracer) *engine.Engine {
	opts := []engine.Option{engine.WithParallelism(1), engine.WithoutTraceSharing()}
	if store != nil {
		opts = append(opts, engine.WithStore(store))
	}
	if reg := tr.registry(); reg != nil {
		opts = append(opts, engine.WithTelemetry(reg))
	}
	return engine.New(opts...)
}

// wearJobs is one streaming job per point.
func wearJobs(accesses int, seed int64) ([]engine.Job, error) {
	jobs := make([]engine.Job, 0, len(wearPoints))
	for _, pt := range wearPoints {
		prof, err := workload.ByName(pt.workload)
		if err != nil {
			return nil, err
		}
		cfg, err := wearConfig(pt.llc)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, engine.StreamJob(prof, workload.Options{Accesses: accesses, Threads: 4, Seed: seed}, cfg))
	}
	return jobs, nil
}

// wearPass runs every job once on eng, charging each point to one
// ledger unit, and returns the results and their canonical digests.
// A point is the unit, not a stretch of its chunks: the ring producer
// reads ahead of the simulator by a varying number of chunks, so
// chunk-read boundaries move between rounds and per-unit minima over
// such units would add up to less than any real pass.
func wearPass(ctx context.Context, eng *engine.Engine, jobs []engine.Job, led *ledger, tr *tracer) ([]*system.Result, map[string]string, error) {
	results := make([]*system.Result, len(jobs))
	digests := map[string]string{}
	passSpan := tr.start("pass", nil)
	for i, j := range jobs {
		point := fmt.Sprintf("%d.%s.%s", i, j.Workload, j.LLCName())
		sw := startWatch()
		span := tr.start("engine.run", passSpan)
		span.SetAttr("workload", j.Workload)
		span.SetAttr("llc", j.LLCName())
		res, err := eng.Run(telemetry.ContextWithSpan(ctx, span), j)
		w, c := sw.lap()
		led.add(point, w, c)
		span.End()
		if err != nil {
			return nil, nil, fmt.Errorf("%s on %s: %w", j.Workload, j.LLCName(), err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, nil, err
		}
		results[i], digests[point] = res, digest(b)
	}
	passSpan.End()
	tr.drain()
	return results, digests, nil
}

func wearCheck(ctx context.Context, seed int64) (map[string]string, error) {
	jobs, err := wearJobs(wearCheckAccesses, seed)
	if err != nil {
		return nil, err
	}
	_, d, err := wearPass(ctx, newWearEngine(nil, nil), jobs, newLedger(), nil)
	return d, err
}

// wearRoundSeconds is the nominal length of one cold/disk/warm round.
const wearRoundSeconds = 1.5

// wearHitBatch is how many in-memory hits one warm unit times.
const wearHitBatch = 200

func wearMeasure(ctx context.Context, rc runConfig, tr *tracer) (*measurement, error) {
	accesses := wearAccesses
	if rc.smoke {
		accesses = wearSmokeAccesses
	}
	jobs, err := wearJobs(accesses, rc.seed)
	if err != nil {
		return nil, err
	}
	t := rc.tally
	cold, disk, warm := newLedger(), newLedger(), newLedger()
	var first map[string]string
	var coldStats engine.Stats
	var rss, boots []float64
	same := func(phase string, round int, d map[string]string) {
		for _, name := range unionKeys(first, d) {
			t.op(first[name] == d[name], "wear-stream %s pass in round %d: result %s differs from cold pass 1", phase, round, name)
		}
	}
	dir, err := os.MkdirTemp("", "perfbench-wear-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rs := newRounds(rc, wearRoundSeconds)
	for r := 0; rs.more(r); r++ {
		// Cold: a fresh engine simulates every point.
		rssWindow()
		eng := newWearEngine(nil, tr)
		res, d, err := wearPass(ctx, eng, jobs, cold, tr)
		if err != nil {
			return nil, err
		}
		rss = append(rss, peakRSSMiB())
		if r == 0 {
			first, coldStats = d, eng.Stats()
			// The point of the workload: the fault path must really fire.
			for i, p := range res {
				f := p.Degradation
				t.op(f != nil && f.WriteRetries > 0 && f.InitialDisabledWays+f.CondemnedWays > 0,
					"wear-stream point %d (%s on %s): no write-verify retries or condemned ways", i, p.Workload, p.LLCName)
			}
			stored := map[string]*system.Result{}
			for i, j := range jobs {
				k, _ := engine.Key(j)
				stored[k] = res[i]
			}
			if err := persist(dir, stored); err != nil {
				return nil, err
			}
		} else {
			same("cold", r+1, d)
		}

		// Disk: a restarted engine loads every point from the store.
		for b := 0; b < bootsPerRound; b++ {
			t0 := time.Now()
			store, err := engine.OpenDiskCache(dir)
			if err != nil {
				return nil, err
			}
			eng = newWearEngine(store, tr)
			boots = append(boots, time.Since(t0).Seconds())
		}
		if _, d, err = wearPass(ctx, eng, jobs, disk, tr); err != nil {
			return nil, err
		}
		same("disk", r+1, d)

		// Warm: the same engine answers from memory.
		for i, j := range jobs {
			sw := startWatch()
			for h := 0; h < wearHitBatch; h++ {
				if _, err := eng.Run(ctx, j); err != nil {
					return nil, err
				}
			}
			w, c := sw.lap()
			warm.add(fmt.Sprint(i), w, c)
		}
		if _, d, err = wearPass(ctx, eng, jobs, newLedger(), nil); err != nil {
			return nil, err
		}
		same("warm", r+1, d)
		s := eng.Stats()
		t.op(s.Simulated+s.Upgraded == 0, "wear-stream restart in round %d simulated %d points; want 0", r+1, s.Simulated+s.Upgraded)
	}

	wall, cpu := cold.total("")
	var lat []float64
	for i, j := range jobs {
		w, _ := cold.total(fmt.Sprintf("%d.%s.%s", i, j.Workload, j.LLCName()))
		lat = append(lat, float64(w.Nanoseconds())/1e6)
	}
	diskWall, _ := disk.total("")
	warmWall, _ := warm.total("")
	m := &measurement{
		metrics: map[string]metric{
			"setup_s":         {median(boots), "s"},
			"wall_s":          {wall.Seconds(), "s"},
			"cpu_s":           {cpu.Seconds(), "s"},
			"peak_rss_mb":     {mean(rss), "MiB"},
			"accesses_per_s":  {float64(coldStats.Accesses) / wall.Seconds(), "1/s"},
			"cold_jobs_per_s": {float64(len(jobs)) / wall.Seconds(), "1/s"},
			"cold_p50_ms":     {quantile(lat, 0.5), "ms"},
			"cold_p90_ms":     {quantile(lat, 0.9), "ms"},
			"disk_jobs_per_s": {float64(len(jobs)) / diskWall.Seconds(), "1/s"},
			"warm_jobs_per_s": {float64(len(jobs)*wearHitBatch) / warmWall.Seconds(), "1/s"},
		},
		wall: wall.Seconds(),
	}
	if tr != nil {
		m.layers = map[string]float64{"engine.sim_s": time.Duration(coldStats.SimWallNS).Seconds()}
		addEngineCounts(m.layers, coldStats)
	}
	return m, nil
}
