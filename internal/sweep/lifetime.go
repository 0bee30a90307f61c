package sweep

import (
	"context"

	"nvmllc/internal/charfw"
	"nvmllc/internal/endurance"
	"nvmllc/internal/engine"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// LifetimeRow is one (workload, LLC) lifetime projection.
type LifetimeRow struct {
	endurance.Projection
	// LLCWritesPerSec is the aggregate write rate, for context.
	LLCWritesPerSec float64
}

// LifetimeStudy projects LLC lifetime for every characterized workload on
// the given fixed-capacity NVM LLCs (default: one representative per
// class — Kang_P, Chung_S, Zhang_R — since endurance is a class
// property), and correlates the raw lifetime with the paper's workload
// features: the Section VII future-work study.
type LifetimeStudy struct {
	Rows []LifetimeRow
	// Panels hold, per LLC, the |Pearson r| of each workload feature with
	// the raw projected lifetime (a single-row "energy" panel reused for
	// lifetime).
	Panels []*charfw.Panel
}

// Lifetime runs the study.
func Lifetime(ctx context.Context, cfg Config, llcs []string) (*LifetimeStudy, error) {
	ctx, span := cfg.startSpan(ctx, "lifetime")
	defer span.End()
	if len(llcs) == 0 {
		llcs = []string{"Kang_P", "Chung_S", "Zhang_R"}
	}
	models := reference.FixedCapacityModels()
	names := workload.CharacterizedNames()
	eng := cfg.engineOrNew()

	// One memoized trace per workload, shared by every LLC below.
	traces := make(map[string]traceFunc, len(names))
	for _, wlName := range names {
		p, err := workload.ByName(wlName)
		if err != nil {
			return nil, err
		}
		traces[wlName] = lazyTrace(p, cfg.Opts)
	}

	study := &LifetimeStudy{}
	fw := charfw.FromFeatureMap(reference.PaperFeatures())
	for _, llcName := range llcs {
		model, err := reference.ModelByName(models, llcName)
		if err != nil {
			return nil, err
		}
		lifeByWorkload := map[string]float64{}
		for _, wlName := range names {
			sysCfg := system.Gainestown(model)
			sysCfg.ModelWriteContention = cfg.WriteContention
			sysCfg.TrackWear = true
			r, err := eng.Run(ctx, engine.Job{
				Workload:  wlName,
				TraceOpts: cfg.Opts,
				Config:    sysCfg,
				Trace:     traces[wlName],
			})
			if err != nil {
				return nil, err
			}
			est, err := endurance.Estimate(r, endurance.Options{Class: model.Class})
			if err != nil {
				return nil, err
			}
			study.Rows = append(study.Rows, LifetimeRow{
				Projection:      est,
				LLCWritesPerSec: float64(r.LLC.Writes) / r.Seconds(),
			})
			lifeByWorkload[wlName] = est.RawYears
		}
		// Correlate wear RATE (1/lifetime) with features so the target is
		// finite and monotone in stress.
		rateByWorkload := map[string]float64{}
		for w, y := range lifeByWorkload {
			if y > 0 {
				rateByWorkload[w] = 1 / y
			}
		}
		panel, err := fw.PanelFor(ctx, names, charfw.Targets{
			Name:    llcName + " wear rate",
			Energy:  rateByWorkload,
			Speedup: rateByWorkload,
		})
		if err != nil {
			return nil, err
		}
		study.Panels = append(study.Panels, panel)
	}
	return study, nil
}
