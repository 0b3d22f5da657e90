package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/worldgen"
)

// TestRecycledBuffersBitIdentical flies V2→V3→V1→V2 twice on one
// goroutine. Every mission releases its camera images, detector scratch
// and map storage when it ends, so later missions run on buffers earlier
// ones dirtied: tables and arenas filled over the same map, where a
// stale voxel would steer the next mission. Each run of the second pass
// must digest exactly as it did in the first, in the exact engine and in
// the staged fast engine.
// It is part of the -short suite so the CI race job watches the pools'
// hand-over between missions and stage goroutines.
func TestRecycledBuffersBitIdentical(t *testing.T) {
	short := func(_ *worldgen.Scenario, _ *core.System, cfg *RunConfig) {
		cfg.MaxDuration = 25 // long enough to write maps and plan, short enough for -race
	}
	cells := []struct {
		gen    core.Generation
		mi, si int
	}{{core.V2, 2, 4}, {core.V3, 2, 4}, {core.V1, 2, 4}, {core.V2, 2, 5}}
	for _, tc := range []struct {
		name   string
		timing Timing
	}{{"exact", SILTiming()}, {"fast-staged", SILTiming().WithFast()}} {
		t.Run(tc.name, func(t *testing.T) {
			var first []string
			for pass := 0; pass < 2; pass++ {
				for i, c := range cells {
					seed := GridSeed(c.gen, c.mi, c.si, 0)
					r, err := RunGridCell(c.gen, c.mi, c.si, seed, tc.timing, short)
					if err != nil {
						t.Fatal(err)
					}
					d := r.Digest()
					if pass == 0 {
						first = append(first, d)
					} else if d != first[i] {
						t.Errorf("%v map %d scenario %d: recycled-buffer digest %s, first pass %s",
							c.gen, c.mi, c.si, d, first[i])
					}
				}
			}
		})
	}
}
