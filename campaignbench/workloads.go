package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// workload is one fixed campaign the benchmark flies. Everything but the
// seed salt is fixed here; see README.md for why each one exists.
type workload struct {
	name string
	// spec is the campaign, already salted with the run's seed.
	spec campaign.Spec
	// golden is the repository-relative digest file that pins the
	// canonical (seed 0) grid; empty when the workload has none.
	golden string
	// baseReps, when positive, is how many leading repetitions of each
	// cell form the grid the golden file and the fast-mode tolerance
	// cover. The repetitions beyond it are there so that a pass flies
	// enough missions for its figures not to hinge on which few missions a
	// seed draws; they only have to agree pass to pass.
	baseReps int
	// coord flies the measured passes through a loopback coordinator
	// and one in-process worker instead of campaign.Execute.
	coord bool
	// exactRef, when set, is the exact-engine grid whose per-generation
	// success rates the workload must stay within tolerance of.
	exactRef *campaign.Spec
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"golden-sweep", "fast-staged", "dispatch-light", "fleet3"}

// newWorkload resolves a workload name for one seed. Seed 0 is the
// canonical grid (scenario.GridSeed per cell); any other seed salts every
// cell's seed, which turns the golden-file oracles into pass-to-pass
// digest equality.
func newWorkload(name string, seed int64) (*workload, error) {
	var w workload
	switch name {
	case "golden-sweep":
		w.spec = campaign.GoldenGridSpec()
		w.baseReps, w.spec.Repeats = w.spec.Repeats, 3
		w.golden = "internal/campaign/testdata/golden_sweep_digest.txt"
	case "fast-staged":
		exact := campaign.GoldenGridSpec()
		w.spec = exact
		w.spec.Timing = exact.Timing.WithFast()
		w.baseReps, w.spec.Repeats = exact.Repeats, 6
		w.exactRef = &exact
	case "dispatch-light":
		w.spec = campaign.Spec{
			Maps:        campaign.Range(10),
			Scenarios:   []int{0, 2, 5, 7},
			Repeats:     1,
			Generations: []core.Generation{core.V1, core.V2},
			Timing:      scenario.SILTiming(),
		}
		w.coord = true
	case "fleet3":
		// The golden fleet grid is repetition 0 of sixteen.
		timing := scenario.SILTiming()
		timing.Fleet = &scenario.FleetSpec{Size: 3, Spacing: 5}
		w.spec = campaign.Spec{
			Maps:        []int{0, 1},
			Scenarios:   []int{0, 5},
			Repeats:     16,
			Generations: []core.Generation{core.V1},
			Timing:      timing,
		}
		w.golden = "internal/campaign/testdata/golden_fleet_digest.txt"
		w.baseReps = 1
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
	}
	w.name = name
	w.spec.Seed = seedSalt(seed)
	if w.exactRef != nil {
		w.exactRef.Seed = w.spec.Seed
	}
	if seed != 0 {
		w.golden = ""
	}
	return &w, nil
}

// shrink cuts the workload to its first cell (one map, one scenario, one
// repetition, the first generation) — the self-test's grid. A shrunk
// workload has no golden file: the committed digests cover full grids.
func (w *workload) shrink() {
	cut := func(s *campaign.Spec) {
		s.Maps, s.Scenarios, s.Repeats = s.Maps[:1], s.Scenarios[:1], 1
		s.Generations = s.Generations[:1]
	}
	cut(&w.spec)
	if w.exactRef != nil {
		cut(w.exactRef)
	}
	w.golden, w.baseReps = "", 0
}

// seedSalt returns the per-cell seed override for a held-out seed, or nil
// for seed 0 (the canonical grid seeds).
func seedSalt(seed int64) func(campaign.Cell) int64 {
	if seed == 0 {
		return nil
	}
	salt := mix64(uint64(seed))
	return func(c campaign.Cell) int64 {
		return int64(mix64(uint64(scenario.GridSeed(c.Gen, c.MapIdx, c.ScenarioIdx, c.Rep)) ^ salt))
	}
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// digests is one campaign's identity: the aggregate digest and the chain
// over its per-run result digests, in the golden files' format.
type digests struct {
	aggregates, results string
}

// readGolden parses a committed golden digest file ("aggregates <hex>" and
// "results <hex>" lines), read from the checkout at run time.
func readGolden(root, rel string) (digests, error) {
	raw, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return digests{}, fmt.Errorf("golden oracle: %w", err)
	}
	var d digests
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, ok := strings.Cut(line, " ")
		switch {
		case !ok:
			return digests{}, fmt.Errorf("golden oracle %s: malformed line %q", rel, line)
		case k == "aggregates":
			d.aggregates = v
		case k == "results":
			d.results = v
		}
	}
	if d.aggregates == "" || d.results == "" {
		return digests{}, fmt.Errorf("golden oracle %s: missing aggregates or results line", rel)
	}
	return d, nil
}

// cells lists the distinct (map, scenario) worlds a spec flies.
func cells(spec campaign.Spec) ([][2]int, error) {
	runs, err := spec.Runs()
	if err != nil {
		return nil, err
	}
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, r := range runs {
		k := [2]int{r.MapIdx, r.ScenarioIdx}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out, nil
}
