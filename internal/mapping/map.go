// Package mapping provides the three occupancy-map generations the paper
// moves through (§III-B):
//
//   - DenseGrid: the initial "three-dimensional static grid array" — fast
//     but memory-hungry, granularity and footprint mutually exclusive.
//   - LocalGrid: the EGO-Planner-style sliding window that only retains
//     obstacle information near the vehicle; leaving voxels are forgotten,
//     which is the root of MLS-V2's "trapped in unseen obstacles" failures.
//   - Octree: the OctoMap-style probabilistic octree MLS-V3 adopts — global
//     persistence, log-odds sensor fusion, and hierarchical compression.
//
// All maps share the Map interface consumed by the planners, including a
// configured inflation radius so "blocked" queries reflect the vehicle's
// physical extent (paper Fig. 6).
package mapping

import "repro/internal/geom"

// VoxelState is the tri-state occupancy of one voxel.
type VoxelState uint8

// Voxel states. Unknown is the zero value: an unobserved cell.
const (
	Unknown VoxelState = iota
	Free
	Occupied
)

// Map is the occupancy interface the planners and the decision layer use.
type Map interface {
	// State returns the tri-state occupancy of the voxel containing p.
	State(p geom.Vec3) VoxelState
	// Blocked reports whether p lies within the configured inflation
	// radius of any occupied voxel. Planners must use this, not State,
	// for clearance decisions.
	Blocked(p geom.Vec3) bool
	// InsertRay integrates one depth return: the cells along the segment
	// from origin to end are observed free; the end cell is observed
	// occupied when hit is true (a surface return) and free otherwise
	// (a max-range miss).
	InsertRay(origin, end geom.Vec3, hit bool)
	// InsertCloud integrates one full depth capture, deduplicating voxel
	// updates across rays the way OctoMap integrates scans: every voxel
	// touched by the capture receives at most one miss and one hit update.
	InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool)
	// Resolution returns the voxel edge length in meters.
	Resolution() float64
	// InflationRadius returns the configured obstacle inflation radius.
	InflationRadius() float64
	// MemoryBytes estimates the current heap footprint of the map data.
	MemoryBytes() int
	// OccupiedVoxels returns the number of voxels currently occupied.
	OccupiedVoxels() int
}

// voxelKey packs quantized voxel coordinates into a single map key.
// 21 bits per axis supports ±1,048,575 voxels — kilometers of world at any
// practical resolution.
type voxelKey int64

const keyOffset = 1 << 20

func packKey(ix, iy, iz int) voxelKey {
	return voxelKey(int64(ix+keyOffset)<<42 | int64(iy+keyOffset)<<21 | int64(iz+keyOffset))
}

// voxelIndex quantizes a world coordinate to its voxel index at the given
// resolution.
func voxelIndex(c, res float64) int {
	if c >= 0 {
		return int(c / res)
	}
	return int(c/res) - 1
}

// voxelOf quantizes a point to its voxel indices.
func voxelOf(p geom.Vec3, res float64) (ix, iy, iz int) {
	return voxelIndex(p.X, res), voxelIndex(p.Y, res), voxelIndex(p.Z, res)
}

// voxelCenter returns the world-space center of a voxel.
func voxelCenter(ix, iy, iz int, res float64) geom.Vec3 {
	return geom.V3(
		(float64(ix)+0.5)*res,
		(float64(iy)+0.5)*res,
		(float64(iz)+0.5)*res,
	)
}

// NullMap is the no-mapping configuration of MLS-V1: nothing is ever
// occupied, so the straight-line planner flies blind, reproducing the
// first generation's collision profile.
type NullMap struct{}

// State implements Map: every voxel is Unknown.
func (NullMap) State(geom.Vec3) VoxelState { return Unknown }

// Blocked implements Map: nothing is ever blocked.
func (NullMap) Blocked(geom.Vec3) bool { return false }

// InsertRay implements Map as a no-op.
func (NullMap) InsertRay(_, _ geom.Vec3, _ bool) {}

// InsertCloud implements Map as a no-op.
func (NullMap) InsertCloud(_ geom.Vec3, _ []geom.Vec3, _ []bool) {}

// Resolution implements Map.
func (NullMap) Resolution() float64 { return 1 }

// InflationRadius implements Map.
func (NullMap) InflationRadius() float64 { return 0 }

// MemoryBytes implements Map.
func (NullMap) MemoryBytes() int { return 0 }

// OccupiedVoxels implements Map.
func (NullMap) OccupiedVoxels() int { return 0 }

var _ Map = NullMap{}

// walkRay visits the voxel indices along the segment from a to b at the
// given resolution using a 3-D amanatides-woo DDA, calling visit for every
// cell strictly before the final one, then returning the final cell. The
// visit callback returning false stops early.
func walkRay(a, b geom.Vec3, res float64, visit func(ix, iy, iz int) bool) (ex, ey, ez int) {
	ix, iy, iz := voxelOf(a, res)
	ex, ey, ez = voxelOf(b, res)
	d := b.Sub(a)
	length := d.Len()
	if length == 0 {
		return ex, ey, ez
	}
	dir := d.Scale(1 / length)

	step := func(v float64) int {
		if v > 0 {
			return 1
		}
		if v < 0 {
			return -1
		}
		return 0
	}
	sx, sy, sz := step(dir.X), step(dir.Y), step(dir.Z)

	// tMax: distance along the ray to the first boundary crossing per axis.
	tMaxFor := func(c, dirC float64, i, s int) float64 {
		if s == 0 {
			return 1e18
		}
		var boundary float64
		if s > 0 {
			boundary = float64(i+1) * res
		} else {
			boundary = float64(i) * res
		}
		return (boundary - c) / dirC
	}
	tMaxX := tMaxFor(a.X, dir.X, ix, sx)
	tMaxY := tMaxFor(a.Y, dir.Y, iy, sy)
	tMaxZ := tMaxFor(a.Z, dir.Z, iz, sz)
	tDeltaX, tDeltaY, tDeltaZ := 1e18, 1e18, 1e18
	if sx != 0 {
		tDeltaX = res / absf(dir.X)
	}
	if sy != 0 {
		tDeltaY = res / absf(dir.Y)
	}
	if sz != 0 {
		tDeltaZ = res / absf(dir.Z)
	}

	// Hard cap guards against degenerate float behavior.
	maxSteps := int(length/res)*3 + 16
	for n := 0; n < maxSteps; n++ {
		if ix == ex && iy == ey && iz == ez {
			return ex, ey, ez
		}
		if !visit(ix, iy, iz) {
			return ex, ey, ez
		}
		switch {
		case tMaxX <= tMaxY && tMaxX <= tMaxZ:
			ix += sx
			tMaxX += tDeltaX
		case tMaxY <= tMaxZ:
			iy += sy
			tMaxY += tDeltaY
		default:
			iz += sz
			tMaxZ += tDeltaZ
		}
	}
	return ex, ey, ez
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
