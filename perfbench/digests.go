package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// recordedSeeds are the seeds whose check-scale outputs are pinned in
// digests.json: the default seed and one held out from tuning.
var recordedSeeds = []int64{1, 7}

//go:embed digests.json
var digestsJSON []byte

// recorded maps workload → seed → output name → digest.
var recorded = mustParseDigests(digestsJSON)

func mustParseDigests(b []byte) map[string]map[string]map[string]string {
	var d map[string]map[string]map[string]string
	if err := json.Unmarshal(b, &d); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return d
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkRecorded runs the workload at check scale for every recorded
// seed and counts each named output as one operation that fails unless
// its digest matches the recorded one.
func checkRecorded(ctx context.Context, w workloadDef, t *tally) error {
	for _, seed := range recordedSeeds {
		got, err := w.check(ctx, seed)
		if err != nil {
			return fmt.Errorf("%s check at seed %d: %w", w.name, seed, err)
		}
		want := recorded[w.name][strconv.FormatInt(seed, 10)]
		t.op(len(want) > 0, "%s seed %d: no recorded digests", w.name, seed)
		for _, name := range unionKeys(got, want) {
			t.op(got[name] == want[name], "%s seed %d: output %s digest %.12s, recorded %.12s",
				w.name, seed, name, got[name], want[name])
		}
	}
	return nil
}

// recordDigests regenerates digests.json.
func recordDigests(ctx context.Context, path string) error {
	out := map[string]map[string]map[string]string{}
	for _, w := range workloads {
		out[w.name] = map[string]map[string]string{}
		for _, seed := range recordedSeeds {
			got, err := w.check(ctx, seed)
			if err != nil {
				return fmt.Errorf("%s check at seed %d: %w", w.name, seed, err)
			}
			out[w.name][strconv.FormatInt(seed, 10)] = got
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func unionKeys(a, b map[string]string) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
