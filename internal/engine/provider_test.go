package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nvmllc/internal/nvsim"
	"nvmllc/internal/profile"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// countingTrace is a trace provider that counts its calls. While fail is
// set it returns errProvider instead of the trace.
type countingTrace struct {
	tr    *trace.Trace
	calls atomic.Int64
	fail  atomic.Bool
}

var errProvider = errors.New("provider failed")

func newCountingTrace(t *testing.T, name string, opts workload.Options) *countingTrace {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &countingTrace{tr: tr}
}

func (c *countingTrace) provide() (*trace.Trace, error) {
	c.calls.Add(1)
	if c.fail.Load() {
		return nil, errProvider
	}
	return c.tr, nil
}

// job builds a design point over the counted trace on model m.
func (c *countingTrace) job(name string, opts workload.Options, m nvsim.LLCModel) Job {
	return Job{Workload: name, TraceOpts: opts, Config: system.Gainestown(m), Trace: c.provide}
}

// profileJob builds a filtered profile job over the counted trace.
func (c *countingTrace) profileJob(name string, opts workload.Options) ProfileJob {
	return ProfileJob{
		Workload:  name,
		TraceOpts: opts,
		Config:    profile.Config{SetCounts: []int{256, 512, 1024}},
		Trace:     c.provide,
	}
}

func (c *countingTrace) wantCalls(t *testing.T, when string, want int64) {
	t.Helper()
	if got := c.calls.Load(); got != want {
		t.Errorf("%s: provider called %d times, want %d", when, got, want)
	}
}

// TestTraceProviderSkippedOnHits: a memory hit and a store hit on a
// restarted engine answer without building the trace.
func TestTraceProviderSkippedOnHits(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	ct := newCountingTrace(t, "bzip2", opts)
	j := ct.job("bzip2", opts, reference.SRAMBaseline())
	e := New(WithStore(store))
	first, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	ct.wantCalls(t, "simulation", 1)
	if _, err := e.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	ct.wantCalls(t, "memory hit", 1)

	store2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	restarted := New(WithStore(store2))
	got, err := restarted.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	ct.wantCalls(t, "store hit", 1)
	if s := restarted.Stats(); s.Cached != 1 || s.Simulated != 0 {
		t.Errorf("restarted engine: %+v, want 1 cached / 0 simulated", s)
	}
	if got.TimeNS != first.TimeNS || got.LLC != first.LLC {
		t.Error("store hit differs from the simulated result")
	}
}

// TestTraceProviderCoalesced: identical concurrent jobs share one
// simulation and so one provider call.
func TestTraceProviderCoalesced(t *testing.T) {
	const n = 8
	opts := smallOpts()
	ct := newCountingTrace(t, "bzip2", opts)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = ct.job("bzip2", opts, reference.SRAMBaseline())
	}
	e := New(WithParallelism(n))
	if _, err := e.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	ct.wantCalls(t, "coalesced batch", 1)
	if s := e.Stats(); s.Simulated != 1 || s.Cached != n-1 {
		t.Errorf("stats = %+v, want 1 simulated / %d cached", s, n-1)
	}
}

// TestTraceProviderTimelineUpgrade: upgrading a cached timeline-less
// result re-simulates, so it builds the trace exactly once more.
func TestTraceProviderTimelineUpgrade(t *testing.T) {
	opts := smallOpts()
	ct := newCountingTrace(t, "bzip2", opts)
	plain := ct.job("bzip2", opts, reference.SRAMBaseline())
	sampled := plain
	sampled.Config.Timeline = &system.TimelineConfig{Points: 16}
	e := New()
	if _, err := e.Run(context.Background(), plain); err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(context.Background(), sampled)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline == nil {
		t.Fatal("upgrade produced no timeline")
	}
	ct.wantCalls(t, "simulation + upgrade", 2)
	if s := e.Stats(); s.Upgraded != 1 {
		t.Errorf("Upgraded = %d, want 1", s.Upgraded)
	}
	if _, err := e.Run(context.Background(), sampled); err != nil {
		t.Fatal(err)
	}
	ct.wantCalls(t, "hit on the upgraded entry", 2)
}

// TestTraceProviderErrorRetries: a provider error fails the job, is not
// cached, and the next Run asks the provider again.
func TestTraceProviderErrorRetries(t *testing.T) {
	opts := smallOpts()
	ct := newCountingTrace(t, "bzip2", opts)
	ct.fail.Store(true)
	j := ct.job("bzip2", opts, reference.SRAMBaseline())
	e := New()
	if _, err := e.Run(context.Background(), j); !errors.Is(err, errProvider) {
		t.Fatalf("err = %v, want the provider's error", err)
	}
	if s := e.Stats(); s.Failed != 1 || s.Simulated != 0 || s.Accesses != 0 {
		t.Errorf("after failure: %+v, want 1 failed, nothing simulated", s)
	}
	ct.fail.Store(false)
	if _, err := e.Run(context.Background(), j); err != nil {
		t.Fatalf("retry: %v", err)
	}
	ct.wantCalls(t, "failure + retry", 2)
	if s := e.Stats(); s.Simulated != 1 || s.Cached != 0 {
		t.Errorf("after retry: %+v, want 1 simulated / 0 cached", s)
	}
}

// TestTraceProviderNilTrace: a provider that returns neither a trace nor
// an error fails the job instead of panicking.
func TestTraceProviderNilTrace(t *testing.T) {
	j := Job{
		Workload: "x", NoCache: true,
		Config: system.Gainestown(reference.SRAMBaseline()),
		Trace:  func() (*trace.Trace, error) { return nil, nil },
	}
	if _, err := New().Run(context.Background(), j); err == nil {
		t.Fatal("nil trace accepted")
	}
}

// TestTraceErrorReportedOncePerTrace: RunAll reports a failed trace once
// per (workload, options), not once for every design point over it.
func TestTraceErrorReportedOncePerTrace(t *testing.T) {
	opts := smallOpts()
	var jobs []Job
	for _, name := range []string{"bzip2", "tonto"} {
		ct := newCountingTrace(t, name, opts)
		ct.fail.Store(true)
		for _, m := range reference.FixedCapacityModels()[:4] {
			jobs = append(jobs, ct.job(name, opts, m))
		}
	}
	_, err := New().RunAll(context.Background(), jobs)
	if !errors.Is(err, errProvider) {
		t.Fatalf("err = %v, want the provider's error", err)
	}
	if got := strings.Count(err.Error(), errProvider.Error()); got != 2 {
		t.Errorf("provider error reported %d times, want once per workload (2):\n%v", got, err)
	}
	for _, name := range []string{"bzip2", "tonto"} {
		if !strings.Contains(err.Error(), name+" trace") {
			t.Errorf("error does not name the %s trace:\n%v", name, err)
		}
	}
}

// TestProfileTraceProvider: the same contract for profile jobs — hits in
// memory and in the store of a restarted engine build nothing,
// concurrent identical requests build once, and a failure is retried.
func TestProfileTraceProvider(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	ct := newCountingTrace(t, "bzip2", opts)
	pj := ct.profileJob("bzip2", opts)
	e := New(WithStore(store))

	ct.fail.Store(true)
	if _, err := e.RunProfile(context.Background(), pj); !errors.Is(err, errProvider) {
		t.Fatalf("err = %v, want the provider's error", err)
	}
	ct.fail.Store(false)

	const n = 8
	var wg sync.WaitGroup
	profs := make([]*profile.Profile, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			profs[i], errs[i] = e.RunProfile(context.Background(), pj)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if profs[i] != profs[0] {
			t.Errorf("request %d got a different profile", i)
		}
	}
	ct.wantCalls(t, "failure + coalesced retry", 2)
	if _, err := e.RunProfile(context.Background(), pj); err != nil {
		t.Fatal(err)
	}
	ct.wantCalls(t, "memory hit", 2)
	if s := e.Stats(); s.Profiles != 1 || s.ProfileHits != n {
		t.Errorf("stats = %d profiled / %d hits, want 1/%d", s.Profiles, s.ProfileHits, n)
	}

	store2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	restarted := New(WithStore(store2))
	if _, err := restarted.RunProfile(context.Background(), pj); err != nil {
		t.Fatal(err)
	}
	ct.wantCalls(t, "store hit", 2)
	if s := restarted.Stats(); s.Profiles != 0 || s.ProfileHits != 1 {
		t.Errorf("restarted engine: %d profiled / %d hits, want 0/1", s.Profiles, s.ProfileHits)
	}
}
