package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"nvmllc/internal/cache"
	"nvmllc/internal/dram"
	"nvmllc/internal/engine"
	"nvmllc/internal/prism"
	"nvmllc/internal/profile"
	"nvmllc/internal/reference"
	"nvmllc/internal/serve"
	"nvmllc/internal/sweep"
	"nvmllc/internal/system"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// layerDef is one per-layer metric of the ledger.
type layerDef struct {
	name, unit, better string
}

// layerDefs lists every per-layer metric, in BENCHMARK.json order. A
// traced run reports all of them; a layer the workload does not use
// (sweep on serve-cold-warm, serve on the batch workloads) reads 0.
func layerDefs() []layerDef {
	var defs []layerDef
	for _, a := range sweep.ArtifactNames() {
		defs = append(defs, layerDef{"sweep." + a + "_s", "s", "lower"})
	}
	return append(defs, []layerDef{
		{"sweep.non_sim_s", "s", "lower"},
		{"engine.simulated", "count", "lower"},
		{"engine.cached", "count", "higher"},
		{"engine.upgraded", "count", "lower"},
		{"engine.trace_gens", "count", "lower"},
		{"engine.trace_shared", "count", "higher"},
		{"engine.profiles", "count", "lower"},
		{"engine.accesses", "count", "lower"},
		{"engine.sim_s", "s", "lower"},
		{"system.ns_per_access.st", "ns", "lower"},
		{"system.ns_per_access.mt", "ns", "lower"},
		{"system.ns_per_access.16c", "ns", "lower"},
		{"system.ns_per_access.faults", "ns", "lower"},
		{"cache.ns_per_access", "ns", "lower"},
		{"cache.hit_ratio", "ratio", "higher"},
		{"dram.ns_per_request", "ns", "lower"},
		{"dram.hook_ns_per_request", "ns", "lower"},
		{"workload.ns_per_access", "ns", "lower"},
		{"profile.ns_per_access", "ns", "lower"},
		{"prism.ns_per_access", "ns", "lower"},
		{"engine.key_ns", "ns", "lower"},
		{"engine.hit_us", "us", "lower"},
		{"engine.store_load_us", "us", "lower"},
		{"engine.boot_index_ms", "ms", "lower"},
		{"engine.store_write_us", "us", "lower"},
		{"serve.exec_ms", "ms", "lower"},
		{"serve.queue_wait_ms", "ms", "lower"},
		{"serve.http_us", "us", "lower"},
		{"serve.polls_per_job", "count", "lower"},
		{"serve.result_kb", "KiB", "lower"},
		{"serve.rejected", "count", "lower"},
		{"bench.trace_overhead_frac", "ratio", "lower"},
	}...)
}

func layerMetrics(layers map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, d := range layerDefs() {
		out[d.name] = metric{layers[d.name], d.unit}
	}
	return out
}

// sink keeps replayed results observable to the compiler.
var sink any

// Replay sizes: long enough that a replay's median is steady, short
// enough that the whole suite adds a few seconds to a traced run.
const (
	replayAccesses      = 200_000
	replaySmokeAccesses = 20_000
	replayReps          = 3
	replayStoreEntries  = 32
)

// replay records per-item medians into the ledger and keeps the first
// error, so a replay reads as a list of timed calls.
type replay struct {
	l   map[string]float64
	err error
}

// time runs fn replayReps times and records the median cost per item,
// in ns divided by scale (1e3 for µs, 1e6 for ms).
func (r *replay) time(name string, items int, scale float64, fn func() error) {
	if r.err != nil {
		return
	}
	var xs []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			r.err = fmt.Errorf("replay %s: %w", name, err)
			return
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(items)/scale)
	}
	r.l[name] = median(xs)
}

// replayLayers measures the deeper layers by calling their public
// functions directly on the benchmark's own traces and configs:
// paper-exact's single-threaded (bzip2), multi-threaded (cg) and
// 16-core (cg, 16 threads) Gainestown points, wear-stream's first
// pre-worn point, and serve-cold-warm's specs for the engine's key,
// hit and store paths.
func replayLayers(ctx context.Context, rc runConfig) (map[string]float64, error) {
	n := replayAccesses
	if rc.smoke {
		n = replaySmokeAccesses
	}
	st, err := materialize("bzip2", n, 1, rc.seed)
	if err != nil {
		return nil, err
	}
	mt, err := materialize("cg", n, 4, rc.seed)
	if err != nil {
		return nil, err
	}
	mt16, err := materialize("cg", n, 16, rc.seed)
	if err != nil {
		return nil, err
	}
	sram := system.Gainestown(reference.SRAMBaseline())
	faults, err := wearConfig(wearPoints[0].llc)
	if err != nil {
		return nil, err
	}
	r := &replay{l: map[string]float64{}}
	for _, c := range []struct {
		name string
		cfg  system.Config
		tr   *trace.Trace
	}{
		{"st", sram, st},
		{"mt", sram, mt},
		{"16c", sram.WithCores(16), mt16},
		{"faults", faults, mt},
	} {
		scratch := new(system.Scratch)
		r.time("system.ns_per_access."+c.name, len(c.tr.Accesses), 1, func() error {
			src, err := sliceSource(c.tr)
			if err != nil {
				return err
			}
			_, err = system.RunStreamWith(ctx, c.cfg, src, scratch)
			return err
		})
	}
	cacheReplay(r, sram, mt)
	dramReplay(r, mt)
	workloadReplay(r, n, rc.seed)
	profileReplay(ctx, r, sram, mt)
	r.time("prism.ns_per_access", len(st.Accesses), 1, func() error {
		sink = prism.Characterize(st, prism.Config{})
		return nil
	})
	engineReplay(ctx, r, rc.seed)
	return r.l, r.err
}

func materialize(name string, accesses, threads int, seed int64) (*trace.Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, workload.Options{Accesses: accesses, Threads: threads, Seed: seed})
}

// sliceSource streams a materialized trace.
func sliceSource(tr *trace.Trace) (*trace.SliceSource, error) {
	ts, err := trace.NewTraceSource(tr)
	if err != nil {
		return nil, err
	}
	return trace.NewSliceSource(ts.Meta(), tr.Accesses)
}

// cacheReplay drives the raw multi-threaded stream through a cache at
// the Gainestown LLC geometry.
func cacheReplay(r *replay, cfg system.Config, tr *trace.Trace) {
	ccfg := cache.Config{Name: "LLC", CapacityBytes: cfg.LLC.CapacityBytes, BlockBytes: cfg.BlockBytes, Ways: cfg.LLCWays, Policy: cache.LRU}
	var stats cache.Stats
	r.time("cache.ns_per_access", len(tr.Accesses), 1, func() error {
		c, err := cache.New(ccfg)
		if err != nil {
			return err
		}
		for _, a := range tr.Accesses {
			c.Access(c.Line(a.Addr), a.Kind == trace.Write)
		}
		stats = c.Stats()
		return nil
	})
	r.l["cache.hit_ratio"] = stats.HitRate()
}

// dramReplay issues one DRAM request per access of the stream, 2 ns
// apart, without and with a telemetry.Histogram wait hook.
func dramReplay(r *replay, tr *trace.Trace) {
	for _, hooked := range []bool{false, true} {
		name := "dram.ns_per_request"
		if hooked {
			name = "dram.hook_ns_per_request"
		}
		r.time(name, len(tr.Accesses), 1, func() error {
			m, err := dram.New(dram.Gainestown())
			if err != nil {
				return err
			}
			if hooked {
				m.SetWaitHook(telemetry.NewHistogram(telemetry.DefaultScale()).Observe)
			}
			now := 0.0
			for _, a := range tr.Accesses {
				now += 2
				if a.Kind == trace.Write {
					m.Write(now, a.Addr>>6)
				} else {
					m.Read(now, a.Addr>>6)
				}
			}
			return nil
		})
	}
}

// workloadReplay times trace generation alone: Generator.ReadChunk over
// wear-stream's first workload.
func workloadReplay(r *replay, accesses int, seed int64) {
	p, err := workload.ByName(wearPoints[0].workload)
	if err != nil {
		r.err = err
		return
	}
	g, err := workload.NewGenerator(p, workload.Options{Accesses: accesses, Threads: 4, Seed: seed})
	if err != nil {
		r.err = err
		return
	}
	buf := make([]trace.Access, system.DefaultChunkAccesses)
	r.time("workload.ns_per_access", int(g.Meta().Accesses), 1, func() error {
		g.Reset()
		for {
			k, err := g.ReadChunk(buf)
			if err != nil || k == 0 {
				return err
			}
		}
	})
}

func profileReplay(ctx context.Context, r *replay, cfg system.Config, tr *trace.Trace) {
	h := profile.Hierarchy{
		BlockBytes: cfg.BlockBytes,
		L1I:        profile.LevelSpec{CapacityBytes: cfg.L1IBytes, Ways: cfg.L1IWays},
		L1D:        profile.LevelSpec{CapacityBytes: cfg.L1DBytes, Ways: cfg.L1DWays},
		L2:         profile.LevelSpec{CapacityBytes: cfg.L2Bytes, Ways: cfg.L2Ways},
	}
	sets := int(cfg.LLC.CapacityBytes) / cfg.BlockBytes / cfg.LLCWays
	pcfg := profile.Config{BlockBytes: cfg.BlockBytes, SetCounts: []int{sets}}
	sc := new(profile.Scratch)
	r.time("profile.ns_per_access", len(tr.Accesses), 1, func() error {
		src, err := sliceSource(tr)
		if err != nil {
			return err
		}
		_, err = profile.RunFiltered(ctx, src, h, pcfg, sc)
		return err
	})
}

// engineReplay times the engine's per-job bookkeeping on serve-cold-warm
// specs: key derivation, an in-memory hit, and the DiskCache's write,
// boot index and load.
func engineReplay(ctx context.Context, r *replay, seed int64) {
	if r.err != nil {
		return
	}
	specs := serveSpecs(seed, serveCheckAccesses)[:replayStoreEntries]
	eng := engine.New(engine.WithParallelism(1))
	jobs := make([]engine.Job, len(specs))
	results := make([]*system.Result, len(specs))
	keys := make([]string, len(specs))
	for i, s := range specs {
		j, err := simJob(s)
		if err != nil {
			r.err = err
			return
		}
		if results[i], err = eng.Run(ctx, j); err != nil {
			r.err = err
			return
		}
		jobs[i] = j
		keys[i], _ = engine.Key(j)
	}

	const keyReps = 200
	r.time("engine.key_ns", keyReps*len(jobs), 1, func() error {
		for k := 0; k < keyReps; k++ {
			for _, j := range jobs {
				sink, _ = engine.Key(j)
			}
		}
		return nil
	})
	r.time("engine.hit_us", len(jobs), 1e3, func() error {
		for _, j := range jobs {
			if _, err := eng.Run(ctx, j); err != nil {
				return err
			}
		}
		return nil
	})

	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		r.err = err
		return
	}
	defer os.RemoveAll(dir)
	store, err := engine.OpenDiskCache(dir)
	if err != nil {
		r.err = err
		return
	}
	r.time("engine.store_write_us", len(keys), 1e3, func() error {
		for i, k := range keys {
			if err := store.Store(k, results[i]); err != nil {
				return err
			}
		}
		return nil
	})
	r.time("engine.boot_index_ms", 1, 1e6, func() error {
		store, err = engine.OpenDiskCache(dir)
		return err
	})
	r.time("engine.store_load_us", len(keys), 1e3, func() error {
		for _, k := range keys {
			if _, ok := store.Load(k); !ok {
				return fmt.Errorf("stored result %s did not load", k)
			}
		}
		return nil
	})
}

// simJob compiles a serve-cold-warm spec to the engine job the server
// would run for it (Gainestown machine, four threads, streamed trace).
func simJob(s serve.JobSpec) (engine.Job, error) {
	p, err := workload.ByName(s.Workload)
	if err != nil {
		return engine.Job{}, err
	}
	models := reference.FixedCapacityModels()
	if s.Config == "area" {
		models = reference.FixedAreaModels()
	}
	m, err := reference.ModelByName(models, s.LLC)
	if err != nil {
		return engine.Job{}, err
	}
	return engine.StreamJob(p, workload.Options{Accesses: s.Accesses, Threads: 4, Seed: s.Seed}, system.Gainestown(m)), nil
}
