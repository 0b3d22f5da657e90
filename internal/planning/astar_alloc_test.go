package planning

import (
	"testing"

	"repro/internal/geom"
)

// TestAStarPlanAllocationFree guards the planner's reusable search state:
// re-planning on an unchanged map reuses the node table, arena, open heap
// and path buffers, allocating nothing, and returns the same path.
func TestAStarPlanAllocationFree(t *testing.T) {
	m := wallMap(10, 8)
	a := NewAStar(DefaultAStarConfig())
	start, goal := geom.V3(0, 0, 4), geom.V3(20, 0, 4)
	first, err := a.Plan(start, goal, m)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]geom.Vec3(nil), first...)
	allocs := testing.AllocsPerRun(10, func() {
		path, err := a.Plan(start, goal, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != len(want) {
			t.Fatalf("re-plan: %d waypoints, first plan %d", len(path), len(want))
		}
		for i := range path {
			if path[i] != want[i] {
				t.Fatalf("re-plan waypoint %d: %v, first plan %v", i, path[i], want[i])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("repeated Plan: %v allocs, want 0", allocs)
	}
	// A fresh planner agrees with the reused one.
	fresh, err := NewAStar(DefaultAStarConfig()).Plan(start, goal, m)
	if err != nil || len(fresh) != len(want) {
		t.Fatalf("fresh planner: %v, %d waypoints (want %d)", err, len(fresh), len(want))
	}
	for i := range fresh {
		if fresh[i] != want[i] {
			t.Fatalf("fresh planner waypoint %d: %v, reused %v", i, fresh[i], want[i])
		}
	}
}
