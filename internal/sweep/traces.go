package sweep

// Lazy trace generation. Sweeps hand the engine a trace provider per
// (workload, options) pair instead of a generated trace: the engine calls
// it only for a design point it must simulate, profile or upgrade, so a
// sweep whose points are all cached generates nothing. Each provider is
// memoized, so every design point over one workload shares a single
// generation, and it lives only as long as the artifact call holding it.

import (
	"sync"

	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// generate builds a materialized trace. It is workload.Generate, held in
// a variable so tests can count generations.
var generate = workload.Generate

// traceFunc provides a trace on demand (engine.Job.Trace).
type traceFunc = func() (*trace.Trace, error)

// lazyTrace returns a memoized, concurrency-safe generator for one
// (profile, options) pair.
func lazyTrace(p workload.Profile, opts workload.Options) traceFunc {
	return sync.OnceValues(func() (*trace.Trace, error) { return generate(p, opts) })
}

// traceMemo hands out one lazyTrace per (workload, options) pair, so the
// sweeps and prism characterizations inside one artifact call share
// their generations. It is used from the goroutine building the jobs
// only; the generators it returns are safe for concurrent calls.
type traceMemo map[traceKey]traceFunc

type traceKey struct {
	name string
	opts workload.Options
}

// lazy returns the pair's memoized generator, creating it on first use.
func (m traceMemo) lazy(p workload.Profile, opts workload.Options) traceFunc {
	k := traceKey{p.Name, opts}
	f, ok := m[k]
	if !ok {
		f = lazyTrace(p, opts)
		m[k] = f
	}
	return f
}
