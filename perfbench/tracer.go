package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"nvmllc/internal/telemetry"
)

// tracer keeps a traced run's spans in memory. The benchmark opens
// spans around its calls into each layer on the tracer's registry; the
// engine, given the same registry, parents its own per-design-point
// spans to them through the context. The registry retains only its
// newest 1024 spans, so callers drain it after each bounded unit of
// work (an artifact, a job) and the tracer accumulates every record.
//
// A nil *tracer is an untraced run: every method is a no-op.
type tracer struct {
	reg *telemetry.Registry

	mu   sync.Mutex
	seen map[uint64]bool
	recs []telemetry.SpanRecord
}

func newTracer() *tracer {
	return &tracer{reg: telemetry.New(), seen: map[uint64]bool{}}
}

// registry is the span registry (nil when untraced).
func (t *tracer) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// start opens a span; nil on an untraced run.
func (t *tracer) start(name string, parent *telemetry.Span) *telemetry.Span {
	return t.registry().StartSpan(name, parent)
}

// drain moves the registry's completed spans into the tracer.
func (t *tracer) drain() {
	if t == nil {
		return
	}
	spans := t.reg.Spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if !t.seen[s.ID] {
			t.seen[s.ID] = true
			t.recs = append(t.recs, s)
		}
	}
}

// spans returns every drained span ordered by id.
func (t *tracer) spans() []telemetry.SpanRecord {
	t.drain()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]telemetry.SpanRecord(nil), t.recs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// write saves the span file: a header line with the host fingerprint
// and the per-layer ledger, then one span record per line.
func (t *tracer) write(path string, host hostInfo, layers map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host, "layers": layers}); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
