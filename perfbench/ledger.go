package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host is shared: on a 2-vCPU machine, 8-second windows of an
// identical CPU loop had medians 12% apart while their fastest 40 ms
// iterations stayed within 2%, and over a minute even the fastest
// iteration of 3-second windows moved by 21%. So a run repeats its work
// in rounds spread over the whole run, splits each pass into short
// deterministic units (a design point, an artifact's remainder, a
// streamed point, a window of jobs), and charges every unit the least
// it cost in any round. Interference only ever adds time, so the
// per-unit minimum is the steadiest estimate of what the code itself
// costs; totals are sums of unit minima.

// ledger accumulates per-unit costs over rounds.
type ledger struct {
	order []string
	wall  map[string]time.Duration
	cpu   map[string]time.Duration
}

func newLedger() *ledger {
	return &ledger{wall: map[string]time.Duration{}, cpu: map[string]time.Duration{}}
}

// add records one round's cost of a unit; the unit keeps its minimum.
func (l *ledger) add(unit string, wall, cpu time.Duration) {
	if w, ok := l.wall[unit]; ok {
		l.wall[unit] = min(w, wall)
		l.cpu[unit] = min(l.cpu[unit], cpu)
		return
	}
	l.order = append(l.order, unit)
	l.wall[unit], l.cpu[unit] = wall, cpu
}

// total sums the unit minima of every unit whose name has the prefix.
func (l *ledger) total(prefix string) (wall, cpu time.Duration) {
	for _, u := range l.order {
		if strings.HasPrefix(u, prefix) {
			wall += l.wall[u]
			cpu += l.cpu[u]
		}
	}
	return wall, cpu
}

// rounds decides how many cold/disk/warm rounds a run makes: as many of
// a nominal length as fit the budget. The count depends on the budget
// only, never on how fast this host happens to be: a unit's minimum is
// then taken over the same number of samples in every run, and the
// number of samples a minimum is taken over moves the minimum. Each
// unit is sampled once per round, so its samples spread over the whole
// run. Only a host so slow that the rounds overrun the budget
// roundsOverrun times over ends the run early (never before two rounds).
type rounds struct {
	n        int
	deadline time.Time
}

const roundsOverrun = 1.6

func newRounds(rc runConfig, roundSeconds float64) rounds {
	n := 2
	if !rc.smoke {
		n = max(2, int(rc.seconds/roundSeconds))
	}
	limit := time.Duration(roundsOverrun * rc.seconds * float64(time.Second))
	return rounds{n: n, deadline: time.Now().Add(limit)}
}

// more reports whether another round follows done finished ones.
func (r rounds) more(done int) bool {
	if done >= r.n {
		return false
	}
	if done >= 2 && time.Now().After(r.deadline) {
		fmt.Fprintf(os.Stderr, "perfbench: host too slow: stopping after %d of %d rounds\n", done, r.n)
		return false
	}
	return true
}

// bootsPerRound is how often a round repeats its restart set-up (store
// open with boot index, engine, and for serve-cold-warm the server and
// listener); setup_s is the median of them all.
const bootsPerRound = 5

// mean is the arithmetic mean of xs (at least one value).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms lists the unit minima of wall time in ms, in first-seen order;
// a ledger of latencies (cpu 0) yields per-unit minimum latencies.
func (l *ledger) ms() []float64 {
	out := make([]float64, 0, len(l.order))
	for _, u := range l.order {
		out = append(out, float64(l.wall[u].Nanoseconds())/1e6)
	}
	return out
}

// stopwatch measures consecutive intervals of wall and process CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// lap returns the interval since the last lap (or start) and restarts.
func (s *stopwatch) lap() (wall, cpu time.Duration) {
	now, c := time.Now(), cpuTime()
	wall, cpu = now.Sub(s.wall), c-s.cpu
	s.wall, s.cpu = now, c
	return wall, cpu
}

// rssWindow starts a peak-RSS measurement: the heap is returned to the
// OS and the kernel's high-water mark reset, so the pass that follows
// starts from the state a fresh process would. The engine's scratch
// pools hold LLC tag arenas of up to ~70 MiB, and a sync.Pool keeps what
// it held through one collection (its victim cache): with FreeOSMemory's
// collection alone, an arena of the last pass would stay live into
// some passes and not others. The collection before it empties them.
func rssWindow() {
	runtime.GC()
	debug.FreeOSMemory()
	// Linux resets VmHWM on "5"; elsewhere the peak spans the process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the high-water mark since the last rssWindow, or the
// process-lifetime peak where /proc is unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
