package sweep

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nvmllc/internal/engine"
	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// generations counts trace generations per workload name.
type generations struct {
	mu     sync.Mutex
	byName map[string]int
}

// countGenerations routes the package's trace generation through a
// counter for the rest of the test.
func countGenerations(t *testing.T) *generations {
	t.Helper()
	g := &generations{byName: map[string]int{}}
	orig := generate
	generate = func(p workload.Profile, opts workload.Options) (*trace.Trace, error) {
		g.mu.Lock()
		g.byName[p.Name]++
		g.mu.Unlock()
		return orig(p, opts)
	}
	t.Cleanup(func() { generate = orig })
	return g
}

// take returns the counts so far and resets them.
func (g *generations) take() map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.byName
	g.byName = map[string]int{}
	return out
}

// runRegistry runs every registry artifact once and returns their values.
func runRegistry(t *testing.T, cfg Config) map[string]any {
	t.Helper()
	out := map[string]any{}
	for _, a := range Artifacts() {
		res, err := Run(context.Background(), a.Name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		out[a.Name] = res.Value
	}
	return out
}

// TestCachedPassGeneratesOnlyPrismTraces: once every design point of the
// registry is cached, a second pass — on the same engine, then on a
// restarted engine over its DiskCache — builds only the traces prism
// characterizes (Table VI's 16 and fig4measured's three AI workloads)
// and reproduces the cold pass exactly.
func TestCachedPassGeneratesOnlyPrismTraces(t *testing.T) {
	gens := countGenerations(t)
	dir := t.TempDir()
	store, err := engine.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.Options{Accesses: 10000, Seed: 3}
	eng := engine.New(engine.WithStore(store))
	cfg := Config{Opts: opts, Engine: eng}
	cold := runRegistry(t, cfg)
	if len(gens.take()) == 0 {
		t.Fatal("cold pass generated no traces")
	}

	want := map[string]int{}
	for _, n := range workload.CharacterizedNames() {
		want[n]++
	}
	for _, n := range workload.AINames() {
		want[n]++
	}

	before := eng.Stats()
	warm := runRegistry(t, cfg)
	if got := gens.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("memory-warm pass generated %v, want only the prism traces %v", got, want)
	}
	if s := eng.Stats(); s.Simulated+s.Upgraded+s.Profiles != before.Simulated+before.Upgraded+before.Profiles {
		t.Errorf("memory-warm pass did simulation work: %+v -> %+v", before, s)
	}

	store2, err := engine.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	diskEng := engine.New(engine.WithStore(store2))
	disk := runRegistry(t, Config{Opts: opts, Engine: diskEng})
	if got := gens.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("restarted pass generated %v, want only the prism traces %v", got, want)
	}
	if s := diskEng.Stats(); s.Simulated+s.Upgraded+s.Profiles != 0 {
		t.Errorf("restarted pass did simulation work: %+v", s)
	}

	for _, name := range ArtifactNames() {
		if !reflect.DeepEqual(cold[name], warm[name]) {
			t.Errorf("%s: memory-warm pass differs from the cold pass", name)
		}
		if !reflect.DeepEqual(cold[name], disk[name]) {
			t.Errorf("%s: restarted pass differs from the cold pass", name)
		}
	}
}

// TestLifetimeGeneratesEachTraceOnce: the lifetime study simulates every
// characterized workload on three LLCs but builds each trace once.
func TestLifetimeGeneratesEachTraceOnce(t *testing.T) {
	gens := countGenerations(t)
	cfg := Config{Opts: workload.Options{Accesses: 10000, Seed: 3}}
	if _, err := Lifetime(context.Background(), cfg, nil); err != nil {
		t.Fatal(err)
	}
	got := gens.take()
	want := map[string]int{}
	for _, n := range workload.CharacterizedNames() {
		want[n] = 1
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lifetime generated %v, want each of the %d characterized traces once", got, len(want))
	}
}

// threadLimit is the generator's error for an over-threaded workload.
const threadLimit = "exceeds limit 64"

// TestFigureGenerationErrorOncePerWorkload: with a thread count the
// generator rejects, the multi-threaded workloads' traces fail. RunFigure
// reports each failure once (not once per LLC model) and still returns
// the single-threaded workload's row.
func TestFigureGenerationErrorOncePerWorkload(t *testing.T) {
	cfg := Config{Opts: workload.Options{Accesses: 10000, Seed: 3, Threads: 65}}
	fig, err := RunFigure(context.Background(), "bad threads", reference.FixedCapacityModels(),
		[]string{"bzip2", "ft", "cg"}, cfg)
	if err == nil {
		t.Fatal("over-threaded workloads accepted")
	}
	if got := strings.Count(err.Error(), threadLimit); got != 2 {
		t.Errorf("generation error reported %d times, want once per failed workload (2):\n%v", got, err)
	}
	if fig == nil {
		t.Fatal("no partial figure returned")
	}
	if !reflect.DeepEqual(fig.Workloads, []string{"bzip2"}) {
		t.Errorf("partial figure rows = %v, want [bzip2]", fig.Workloads)
	}
}

// TestCoreSweepGenerationErrorOnce: a core count the generator rejects
// fails every LLC model at that count; CoreSweep reports it once.
func TestCoreSweepGenerationErrorOnce(t *testing.T) {
	cfg := Config{Opts: workload.Options{Accesses: 10000, Seed: 3}}
	_, err := CoreSweep(context.Background(), "ft", []int{1, 65}, cfg)
	if err == nil {
		t.Fatal("65-thread core sweep accepted")
	}
	if got := strings.Count(err.Error(), threadLimit); got != 1 {
		t.Errorf("generation error reported %d times, want once:\n%v", got, err)
	}
}
