package sweep

import (
	"context"
	"fmt"

	"nvmllc/internal/engine"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// CoreSweepResult holds the Section V-C sensitivity study for one
// workload: performance and LLC energy across core counts and LLC
// technologies, normalized to the single-core SRAM baseline.
type CoreSweepResult struct {
	// Workload is the benchmark name.
	Workload string
	// Cores lists the swept core counts.
	Cores []int
	// LLCs are the model names (including SRAM).
	LLCs []string
	// Speedup and Energy are indexed [coreIdx][llc], normalized to the
	// 1-core SRAM run.
	Speedup, Energy [][]float64
	// Raw holds the underlying results indexed the same way.
	Raw [][]*system.Result
}

// DefaultCoreCounts is the paper's sweep: 1 to 32 cores.
var DefaultCoreCounts = []int{1, 2, 4, 8, 16, 32}

// CoreSweep runs the Section V-C study: one multi-threaded workload across
// core counts for every fixed-area LLC model, normalized to 1-core SRAM.
func CoreSweep(ctx context.Context, name string, cores []int, cfg Config) (*CoreSweepResult, error) {
	ctx, span := cfg.startSpan(ctx, "core_sweep", "workload", name)
	defer span.End()
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if !p.MT {
		return nil, fmt.Errorf("sweep: core sweep needs a multi-threaded workload, %s is single-threaded", name)
	}
	if len(cores) == 0 {
		cores = DefaultCoreCounts
	}
	models := reference.FixedAreaModels()
	eng := cfg.engineOrNew()
	res := &CoreSweepResult{Workload: name, Cores: cores}
	for _, m := range models {
		res.LLCs = append(res.LLCs, m.Name)
	}

	memo := traceMemo{}
	var baseline *system.Result
	for _, n := range cores {
		opts := cfg.Opts
		opts.Threads = n
		traces := map[string]traceFunc{name: memo.lazy(p, opts)}
		raw, err := runPoints(ctx, eng, models, []string{name}, traces, opts, cfg, n)
		if err != nil {
			return nil, err
		}
		if n == cores[0] {
			// Establish the single-core SRAM baseline from the first swept
			// count if it is 1; otherwise simulate it explicitly.
			if cores[0] == 1 {
				baseline = raw[name]["SRAM"]
			} else {
				opts1 := cfg.Opts
				opts1.Threads = 1
				sysCfg := system.Gainestown(reference.SRAMBaseline()).WithCores(1)
				sysCfg.ModelWriteContention = cfg.WriteContention
				baseline, err = eng.Run(ctx, engine.Job{
					Workload:  name,
					TraceOpts: opts1,
					Config:    sysCfg,
					Trace:     memo.lazy(p, opts1),
				})
				if err != nil {
					return nil, err
				}
			}
		}
		var sp, en []float64
		var rawRow []*system.Result
		for _, llc := range res.LLCs {
			r := raw[name][llc]
			if r == nil {
				return nil, fmt.Errorf("sweep: core sweep missing result for %s on %s at %d cores", name, llc, n)
			}
			sp = append(sp, baseline.TimeNS/r.TimeNS)
			en = append(en, r.LLCEnergyJ()/baseline.LLCEnergyJ())
			rawRow = append(rawRow, r)
		}
		res.Speedup = append(res.Speedup, sp)
		res.Energy = append(res.Energy, en)
		res.Raw = append(res.Raw, rawRow)
	}
	return res, nil
}

// CoreSweepWorkloads are the workloads Section V-C discusses.
var CoreSweepWorkloads = []string{"ft", "cg", "lu", "sp", "mg", "is"}
