package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvmllc/internal/sweep"
	"nvmllc/internal/telemetry"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := run(context.Background(), w, runConfig{seed: 3, seconds: 0.1, smoke: true, tally: &tally{}}, traced, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// A tiny-scale run of every workload prints exactly the metrics
// BENCHMARK.json names, each with its unit: the end-to-end set
// untraced, the per-layer set traced.
func TestSmokeRunPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	for _, d := range layerDefs() {
		found := false
		for _, m := range spec.PerLayer {
			found = found || (m.Name == d.name && m.Unit == d.unit)
		}
		if !found {
			t.Errorf("per-layer metric %s (%s) missing from BENCHMARK.json", d.name, d.unit)
		}
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res := smokeRun(t, name, traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// A recorded digest that no longer matches the program's output makes
// the run count a failed operation.
func TestCorruptedDigestCountsAsFailed(t *testing.T) {
	for _, name := range workloadNames() {
		w, _ := lookup(name)
		seedDigests := recorded[name]["1"]
		var key string
		for k := range seedDigests {
			key = k
			break
		}
		orig := seedDigests[key]
		seedDigests[key] = strings.Repeat("0", len(orig))
		var tl tally
		err := checkRecorded(context.Background(), w, &tl)
		seedDigests[key] = orig
		if err != nil {
			t.Fatal(err)
		}
		if tl.failed != 1 {
			t.Errorf("%s: corrupted digest %s gave %d failed of %d, want 1", name, key, tl.failed, tl.attempted)
		}
		tl = tally{}
		if err := checkRecorded(context.Background(), w, &tl); err != nil || tl.failed != 0 {
			t.Errorf("%s: restored digests gave %d failed (err %v)", name, tl.failed, err)
		}
	}
}

// spanSlack absorbs clock reads around span boundaries.
const spanSlack = 2 * time.Millisecond

// spanTolerance is how far the artifact spans may fall short of the
// pass span: the gaps between them hold only the tracer's own draining
// and the output digests.
const spanTolerance = 0.05

// In a traced paper-exact run every engine span nests inside a
// sweep.<artifact> span, and the artifact spans add up to the pass.
func TestPaperSpansNestAndAddUp(t *testing.T) {
	tr := newTracer()
	var tl tally
	if _, err := paperMeasure(context.Background(), runConfig{seed: 3, seconds: 0.1, smoke: true, tally: &tl}, tr); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("%d failed operations", tl.failed)
	}
	spans := tr.spans()
	byID := map[uint64]telemetry.SpanRecord{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	end := func(s telemetry.SpanRecord) int64 { return s.StartUnixNano + s.DurationNS }
	artifacts := map[string]bool{}
	for _, a := range sweep.ArtifactNames() {
		artifacts["sweep."+a] = true
	}

	engineSpans := 0
	artifactNS := map[uint64]int64{} // per pass span
	passes := 0
	for _, s := range spans {
		switch {
		case s.Name == "pass":
			passes++
		case artifacts[s.Name]:
			p, ok := byID[s.Parent]
			if !ok || p.Name != "pass" {
				t.Fatalf("span %s (%d) has parent %d, want a pass span", s.Name, s.ID, s.Parent)
			}
			artifactNS[p.ID] += s.DurationNS
		case s.Name == "simulate" || s.Name == "upgrade" || s.Name == "profile":
			engineSpans++
			p, ok := byID[s.Parent]
			if !ok || !artifacts[p.Name] {
				t.Fatalf("engine span %s (%d) has parent %d (%s), want a sweep artifact span", s.Name, s.ID, s.Parent, p.Name)
			}
			if s.StartUnixNano+int64(spanSlack) < p.StartUnixNano || end(s) > end(p)+int64(spanSlack) {
				t.Fatalf("engine span %d [%d,%d] outside %s [%d,%d]", s.ID, s.StartUnixNano, end(s), p.Name, p.StartUnixNano, end(p))
			}
		}
	}
	if engineSpans == 0 || passes == 0 {
		t.Fatalf("%d engine spans, %d passes", engineSpans, passes)
	}
	for id, sum := range artifactNS {
		pass := byID[id].DurationNS
		if sum > pass+int64(spanSlack) || float64(pass-sum) > spanTolerance*float64(pass) {
			t.Errorf("pass %d: artifact spans sum to %v of a %v pass (tolerance %.0f%%)",
				id, time.Duration(sum), time.Duration(pass), spanTolerance*100)
		}
	}
}
