package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// writtenBricks counts the window bricks a grid has acquired.
func writtenBricks(g *LocalGrid) int {
	n := 0
	for _, b := range g.bricks {
		if b != nil {
			n++
		}
	}
	return n
}

// TestLocalGridLazyWindow pins the lazily acquired window: before the
// first write no brick exists, every voxel reads Unknown, and
// MemoryBytes already reports the full window the deployed grid holds.
func TestLocalGridLazyWindow(t *testing.T) {
	extents := geom.V3(44, 44, 26)
	g := NewLocalGrid(extents, 0.5, 0.6)
	if n := writtenBricks(g); n != 0 {
		t.Fatalf("%d window bricks acquired before the first write", n)
	}
	nx, ny, nz := int(extents.X/0.5)+1, int(extents.Y/0.5)+1, int(extents.Z/0.5)+1
	eager := nx*ny*nz*8 + nx*ny*nz // packed key + state per slot
	if got := g.MemoryBytes(); got != eager {
		t.Fatalf("MemoryBytes before first write = %d, want the eager window %d", got, eager)
	}
	g.Recenter(geom.V3(0, 0, 5))
	for _, p := range []geom.Vec3{geom.V3(0, 0, 5), geom.V3(3, -2, 4), geom.V3(-10, 10, 1)} {
		if st := g.State(p); st != Unknown {
			t.Fatalf("State(%v) = %v before any write, want Unknown", p, st)
		}
		if g.Blocked(p) {
			t.Fatalf("Blocked(%v) before any write", p)
		}
	}
	g.InsertRay(geom.V3(0, 0, 5), geom.V3(4, 0, 5), true)
	if n := writtenBricks(g); n == 0 || n > 3 {
		t.Fatalf("one 4 m ray acquired %d window bricks", n)
	}
	if st := g.State(geom.V3(4, 0, 5)); st != Occupied {
		t.Fatalf("hit endpoint state %v, want Occupied", st)
	}
	if got := g.MemoryBytes(); got < eager {
		t.Fatalf("MemoryBytes after a write = %d, below the window %d", got, eager)
	}
	g.Release()
	g.Release() // idempotent
}

// randomCloud returns a deterministic depth-fan-like capture around origin.
func randomCloud(rng *rand.Rand, origin geom.Vec3, n int) ([]geom.Vec3, []bool) {
	ends := make([]geom.Vec3, n)
	hits := make([]bool, n)
	for i := range ends {
		ends[i] = origin.Add(geom.V3(rng.Float64()*16-8, rng.Float64()*16-8, rng.Float64()*6-3))
		hits[i] = rng.Intn(3) > 0
	}
	return ends, hits
}

// fly inserts a fixed sequence of captures along a short track.
func fly(m Map, recenter func(geom.Vec3), seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 12; step++ {
		origin := geom.V3(float64(step)*1.5, float64(step%3), 6)
		if recenter != nil {
			recenter(origin)
		}
		ends, hits := randomCloud(rng, origin, 160)
		m.InsertCloud(origin, ends, hits)
	}
}

// sameMap compares two maps over a lattice of probe points.
func sameMap(t *testing.T, name string, got, want Map) {
	t.Helper()
	if got.MemoryBytes() != want.MemoryBytes() || got.OccupiedVoxels() != want.OccupiedVoxels() {
		t.Fatalf("%s: recycled map %d B / %d occupied, fresh %d B / %d occupied", name,
			got.MemoryBytes(), got.OccupiedVoxels(), want.MemoryBytes(), want.OccupiedVoxels())
	}
	for x := -10.0; x <= 30; x += 0.7 {
		for y := -12.0; y <= 12; y += 0.7 {
			for z := 0.2; z <= 10; z += 0.9 {
				p := geom.V3(x, y, z)
				if got.State(p) != want.State(p) || got.Blocked(p) != want.Blocked(p) {
					t.Fatalf("%s at %v: recycled state %v blocked %v, fresh %v %v", name, p,
						got.State(p), got.Blocked(p), want.State(p), want.Blocked(p))
				}
			}
		}
	}
}

// TestRecycledMapsMatchFresh flies a capture sequence into a map built on
// storage another map released — grown tables, dirty arenas, a written
// window — and requires it to match a map built on fresh storage.
func TestRecycledMapsMatchFresh(t *testing.T) {
	newOct := func() *Octree { return NewOctree(geom.V3(0, 0, 16), 64, 0.5, 1.0) }
	newLocal := func() *LocalGrid { return NewLocalGrid(geom.V3(20, 20, 10), 0.5, 0.6) }

	// Reference maps first, then dirty storage released for reuse.
	wantOct, wantLocal := newOct(), newLocal()
	fly(wantOct, nil, 1)
	fly(wantLocal, wantLocal.Recenter, 1)
	for i := 0; i < 2; i++ {
		o, g := newOct(), newLocal()
		fly(o, nil, 99)
		fly(g, g.Recenter, 99)
		o.Release()
		g.Release()
	}

	gotOct, gotLocal := newOct(), newLocal()
	fly(gotOct, nil, 1)
	fly(gotLocal, gotLocal.Recenter, 1)
	sameMap(t, "octree", gotOct, wantOct)
	if gotOct.NodeCount() != wantOct.NodeCount() {
		t.Fatalf("octree nodes: recycled %d, fresh %d", gotOct.NodeCount(), wantOct.NodeCount())
	}
	sameMap(t, "local grid", gotLocal, wantLocal)
}

// TestCloudScratchMatchesReference checks the epoch-stamped voxel set
// against a map-based dedup of the same captures, across table growth and
// many epochs: the same voxels, each once, occupied winning over free.
func TestCloudScratchMatchesReference(t *testing.T) {
	var c cloudScratch
	rng := rand.New(rand.NewSource(7))
	for capture := 0; capture < 40; capture++ {
		origin := geom.V3(rng.Float64()*4, rng.Float64()*4, 5)
		n := 40 + rng.Intn(600) // large captures force growth
		ends, hits := randomCloud(rng, origin, n)
		c.collect(0.5, origin, ends, hits)

		free := map[voxelKey]geom.Vec3{}
		occ := map[voxelKey]geom.Vec3{}
		for i, end := range ends {
			walkRay(origin, end, 0.5, func(ix, iy, iz int) bool {
				if _, ok := free[packKey(ix, iy, iz)]; !ok {
					free[packKey(ix, iy, iz)] = voxelCenter(ix, iy, iz, 0.5)
				}
				return true
			})
			k := packKey(voxelOf(end, 0.5))
			if hits[i] {
				if _, ok := occ[k]; !ok {
					occ[k] = end
				}
			} else if _, ok := free[k]; !ok {
				free[k] = end
			}
		}
		for k := range occ {
			delete(free, k)
		}

		check := func(kind string, got []cloudVoxel, want map[voxelKey]geom.Vec3) {
			if len(got) != len(want) {
				t.Fatalf("capture %d: %d %s voxels, reference %d", capture, len(got), kind, len(want))
			}
			for _, v := range got {
				if p, ok := want[v.key]; !ok || p != v.p {
					t.Fatalf("capture %d: %s voxel %v at %v, reference %v (present %v)", capture, kind, v.key, v.p, p, ok)
				}
			}
		}
		check("free", c.free, free)
		check("occupied", c.occ, occ)
	}
}
