// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator in-process through the public functions of the existing
// packages (sweep, engine, serve, system, cache, dram, workload, profile,
// prism, telemetry) and prints one JSON result line:
//
//	perfbench --workload paper-exact --seed 3 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes an untraced
// and a traced measurement, replays the deeper layers on the workload's
// own traces and configs, writes the span file, and reports the
// per-layer ledger. See README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// check runs the workload at check scale for one recorded seed and
	// returns its named output digests.
	check func(ctx context.Context, seed int64) (map[string]string, error)
	// measure runs the timed part for the given budget. tr is nil on an
	// untraced run.
	measure func(ctx context.Context, rc runConfig, tr *tracer) (*measurement, error)
}

// runConfig is what a measurement may depend on.
type runConfig struct {
	seed    int64
	seconds float64
	// smoke shrinks every workload to a seconds-long run (tests only).
	smoke bool
	tally *tally
}

// measurement is one workload measurement: end-to-end metrics and, on a
// traced run, the per-layer values the run itself observed.
type measurement struct {
	metrics map[string]metric
	layers  map[string]float64
	// wall is the quantity bench.trace_overhead_frac compares between
	// the untraced and the traced measurement.
	wall float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []workloadDef{
	{name: "paper-exact", check: paperCheck, measure: paperMeasure},
	{name: "serve-cold-warm", check: serveCheck, measure: serveMeasure},
	{name: "wear-stream", check: wearCheck, measure: wearMeasure},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-exact, serve-cold-warm or wear-stream")
		seed    = flag.Int64("seed", 1, "input seed (trace seeds, spec order)")
		seconds = flag.Float64("seconds", 20, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
		spanDir = flag.String("span-dir", ".bench_build/spans", "where a traced run writes <workload>-seed<n>.spans.jsonl")
		record  = flag.String("record-digests", "", "write the check-scale digests of every workload to this file and exit")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *record != "" {
		if err := recordDigests(ctx, *record); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	spans := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, *seed))
	res, err := run(ctx, w, runConfig{seed: *seed, seconds: *seconds, tally: &tally{}}, *traced == 1, spans)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// run performs the digest check and the measurement and assembles the
// result line.
func run(ctx context.Context, w workloadDef, rc runConfig, traced bool, spanFile string) (*result, error) {
	host := fingerprint()
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	if err := checkRecorded(ctx, w, rc.tally); err != nil {
		return nil, err
	}

	var metrics map[string]metric
	if !traced {
		m, err := w.measure(ctx, rc, nil)
		if err != nil {
			return nil, err
		}
		metrics = m.metrics
	} else {
		// The untraced and the traced measurement share the budget, so
		// a traced run takes about as long as an untraced one.
		half := rc
		half.seconds /= 2
		plain, err := w.measure(ctx, half, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		m, err := w.measure(ctx, half, tr)
		if err != nil {
			return nil, err
		}
		layers, err := replayLayers(ctx, rc)
		if err != nil {
			return nil, err
		}
		for k, v := range m.layers {
			layers[k] = v
		}
		layers["bench.trace_overhead_frac"] = m.wall/plain.wall - 1
		metrics = layerMetrics(layers)
		if err := tr.write(spanFile, host, layers); err != nil {
			return nil, err
		}
		fmt.Printf("spans %s\n", spanFile)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	t := rc.tally
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// tally counts operations against failures. A failed operation is
// reported on stderr; it never aborts the run.
type tally struct {
	attempted, failed int
}

func (t *tally) op(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
