package mapping

import (
	"repro/internal/geom"
)

// LocalGrid is the EGO-Planner-style sliding-window occupancy map used by
// MLS-V2: a fixed-size voxel buffer centered on the vehicle. Voxels that
// drift outside the window are forgotten, so obstacles seen earlier can
// vanish from the planner's view — the mechanism behind the paper's
// "trapped within the foliage of a tree" failure (§II-B).
//
// Implementation: a hash-addressed ring buffer. Each slot stores the packed
// world voxel key it currently represents; a slot whose key does not match
// the query is Unknown. Re-centering therefore costs nothing, and stale
// data self-invalidates. Blocked queries hit a reference-counted inflation
// layer maintained incrementally, exactly like the octree's.
//
// The ring buffer is the grid's one large structure (9 bytes per slot,
// about 3.8 MB for MLS-V2's window), yet a mission writes only a small
// part of it. It is therefore stored as 4×4×4-slot bricks, each taken from
// the grid's recycled storage on its first write; an unwritten brick reads
// Unknown, as a fresh buffer would. Bricking changes where a slot lives,
// never which voxels share a slot.
type LocalGrid struct {
	res       float64
	inflation float64
	half      geom.Vec3 // window half-extents in meters
	center    geom.Vec3

	nx, ny, nz int
	bnx, bny   int            // window extent in bricks along x and y
	bricks     []*windowBrick // per brick; nil until its first write
	brickArena []windowBrick  // unused tail of the current brick chunk
	occupied   voxelTable     // occupied voxels inside the window
	inflated   voxelTable
	evictBuf   []int64 // Recenter scratch
	inflBall   [][3]int
	scratch    cloudScratch
	store      *mapStore // recyclable storage behind the tables (pool.go)
}

// brickSide is the window brick edge in slots (brickSide³ slots a brick).
const brickSide = 4

// windowBrick is one brick of the ring buffer: per slot, the packed key of
// the voxel the slot currently represents and that voxel's state.
type windowBrick struct {
	keys   [brickSide * brickSide * brickSide]voxelKey
	states [brickSide * brickSide * brickSide]VoxelState
}

// NewLocalGrid builds a window of the given full extents (meters) at the
// given resolution and inflation radius. Window bricks are acquired on
// their first write; MemoryBytes reports the whole window from the start.
func NewLocalGrid(extents geom.Vec3, res, inflation float64) *LocalGrid {
	if res <= 0 {
		res = 0.5
	}
	nx := int(extents.X/res) + 1
	ny := int(extents.Y/res) + 1
	nz := int(extents.Z/res) + 1
	st := getStore(&localStores, 1024, 4096)
	bnx, bny, bnz := bricksFor(nx), bricksFor(ny), bricksFor(nz)
	g := &LocalGrid{
		res:       res,
		inflation: inflation,
		half:      extents.Scale(0.5),
		nx:        nx, ny: ny, nz: nz,
		bnx: bnx, bny: bny,
		bricks:   st.brickIndex(bnx * bny * bnz),
		occupied: st.occupied,
		inflated: st.inflated,
		scratch:  st.cloud,
		store:    st,
	}
	r := int(inflation/res) + 1
	rr := inflation + res
	for dz := -r; dz <= r; dz++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				d := geom.V3(float64(dx), float64(dy), float64(dz)).Scale(res)
				if d.LenSq() <= rr*rr {
					g.inflBall = append(g.inflBall, [3]int{dx, dy, dz})
				}
			}
		}
	}
	return g
}

// Release hands the grid's window and tables back for reuse by a later
// map (see pool.go). Call it once nothing reads the grid any more: the
// mission has ended and every stage that plans against it has drained.
// The grid is unusable afterwards. Release is idempotent.
func (g *LocalGrid) Release() {
	st := g.store
	if st == nil {
		return
	}
	st.occupied, st.inflated, st.cloud = g.occupied, g.inflated, g.scratch
	g.bricks, g.brickArena, g.store = nil, nil, nil
	g.occupied, g.inflated, g.scratch = voxelTable{}, voxelTable{}, cloudScratch{}
	putStore(&localStores, st)
}

// bricksFor returns how many bricks cover n slots.
func bricksFor(n int) int { return (n + brickSide - 1) / brickSide }

// Recenter moves the window to follow the vehicle and evicts occupied
// voxels that fell outside it.
func (g *LocalGrid) Recenter(center geom.Vec3) {
	g.center = center
	lo := center.Sub(g.half)
	hi := center.Add(g.half)
	// Collect evictions first: the open-addressing table must not be
	// mutated mid-scan. Evictions commute, so scan order is irrelevant.
	g.evictBuf = g.evictBuf[:0]
	for _, kk := range g.occupied.keys {
		if kk == emptySlot {
			continue
		}
		p := keyCenter(voxelKey(kk), g.res)
		if p.X < lo.X || p.X > hi.X || p.Y < lo.Y || p.Y > hi.Y || p.Z < lo.Z || p.Z > hi.Z {
			g.evictBuf = append(g.evictBuf, kk)
		}
	}
	for _, kk := range g.evictBuf {
		g.occupied.del(kk)
		g.paintInflation(voxelKey(kk), -1)
	}
}

// keyCenter reverses packKey to the voxel center point.
func keyCenter(k voxelKey, res float64) geom.Vec3 {
	iz := int(int64(k)&((1<<21)-1)) - keyOffset
	iy := int((int64(k)>>21)&((1<<21)-1)) - keyOffset
	ix := int((int64(k)>>42)&((1<<21)-1)) - keyOffset
	return voxelCenter(ix, iy, iz, res)
}

// keyIndices unpacks a voxel key.
func keyIndices(k voxelKey) (ix, iy, iz int) {
	iz = int(int64(k)&((1<<21)-1)) - keyOffset
	iy = int((int64(k)>>21)&((1<<21)-1)) - keyOffset
	ix = int((int64(k)>>42)&((1<<21)-1)) - keyOffset
	return ix, iy, iz
}

// paintInflation adds delta to the inflation footprint around voxel k.
func (g *LocalGrid) paintInflation(k voxelKey, delta int32) {
	ix, iy, iz := keyIndices(k)
	for _, d := range g.inflBall {
		kk := packKey(ix+d[0], iy+d[1], iz+d[2])
		v := g.inflated.get(int64(kk)) + delta
		if v <= 0 {
			g.inflated.del(int64(kk))
		} else {
			g.inflated.put(int64(kk), v)
		}
	}
}

// inWindow reports whether p lies inside the current window.
func (g *LocalGrid) inWindow(p geom.Vec3) bool {
	d := p.Sub(g.center).Abs()
	return d.X <= g.half.X && d.Y <= g.half.Y && d.Z <= g.half.Z
}

// slot returns the ring-buffer slot for voxel indices: the brick index
// and the slot's offset inside the brick.
func (g *LocalGrid) slot(ix, iy, iz int) (brick, off int) {
	mx := ix % g.nx
	if mx < 0 {
		mx += g.nx
	}
	my := iy % g.ny
	if my < 0 {
		my += g.ny
	}
	mz := iz % g.nz
	if mz < 0 {
		mz += g.nz
	}
	brick = ((mz/brickSide)*g.bny+my/brickSide)*g.bnx + mx/brickSide
	off = ((mz%brickSide)*brickSide+my%brickSide)*brickSide + mx%brickSide
	return brick, off
}

// newBrick hands out the next cleared brick of the grid's storage. A
// cleared brick reads Unknown everywhere: a zero key never matches a real
// voxel.
func (g *LocalGrid) newBrick() *windowBrick {
	if len(g.brickArena) == 0 {
		g.brickArena = take(&brickChunks, &g.store.bricks)[:]
	}
	b := &g.brickArena[0]
	g.brickArena = g.brickArena[1:]
	return b
}

// State implements Map.
func (g *LocalGrid) State(p geom.Vec3) VoxelState {
	if !g.inWindow(p) {
		return Unknown
	}
	ix, iy, iz := voxelOf(p, g.res)
	bi, off := g.slot(ix, iy, iz)
	b := g.bricks[bi]
	if b == nil || b.keys[off] != packKey(ix, iy, iz) {
		return Unknown
	}
	return b.states[off]
}

// Blocked implements Map with a single hash probe.
func (g *LocalGrid) Blocked(p geom.Vec3) bool {
	ix, iy, iz := voxelOf(p, g.res)
	return g.inflated.get(int64(packKey(ix, iy, iz))) > 0
}

// InsertRay implements Map.
func (g *LocalGrid) InsertRay(origin, end geom.Vec3, hit bool) {
	walkRay(origin, end, g.res, func(ix, iy, iz int) bool {
		g.write(ix, iy, iz, Free, false)
		return true
	})
	ex, ey, ez := voxelOf(end, g.res)
	if hit {
		g.write(ex, ey, ez, Occupied, true)
	} else {
		g.write(ex, ey, ez, Free, false)
	}
}

// InsertCloud implements Map with per-capture voxel dedup.
func (g *LocalGrid) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	g.scratch.collect(g.res, origin, ends, hits)
	for _, v := range g.scratch.free {
		ix, iy, iz := keyIndices(v.key)
		g.write(ix, iy, iz, Free, false)
	}
	for _, v := range g.scratch.occ {
		ix, iy, iz := keyIndices(v.key)
		g.write(ix, iy, iz, Occupied, true)
	}
}

// write stores a voxel state if the voxel is inside the window. Occupied
// wins over Free on the same cell unless force is set (a surface return
// beats pass-through).
func (g *LocalGrid) write(ix, iy, iz int, st VoxelState, force bool) {
	p := voxelCenter(ix, iy, iz, g.res)
	if !g.inWindow(p) {
		return
	}
	bi, s := g.slot(ix, iy, iz)
	b := g.bricks[bi]
	if b == nil {
		b = g.newBrick()
		g.bricks[bi] = b
	}
	k := packKey(ix, iy, iz)
	if b.keys[s] == k && b.states[s] == Occupied && !force {
		return
	}
	prevOccupied := b.keys[s] == k && b.states[s] == Occupied
	b.keys[s] = k
	b.states[s] = st
	if st == Occupied {
		if !g.occupied.has(int64(k)) {
			g.occupied.put(int64(k), 1)
			g.paintInflation(k, 1)
		}
	} else if prevOccupied {
		g.occupied.del(int64(k))
		g.paintInflation(k, -1)
	}
}

// BlockedWithin reports whether any occupied voxel lies inside an
// ellipsoid around p with horizontal semi-axis rh and vertical semi-axis
// rv — a crude bounding-box-style clearance probe, deliberately coarser
// than the planning inflation. MLS-V2's safety checks used exactly this
// kind of laterally swollen obstacle footprint, which "swallowed" nearby
// free space (paper Fig. 6) and invalidated otherwise flyable paths.
func (g *LocalGrid) BlockedWithin(p geom.Vec3, rh, rv float64) bool {
	if g.occupied.n == 0 {
		return false
	}
	nh := int(rh/g.res) + 1
	nv := int(rv/g.res) + 1
	ix, iy, iz := voxelOf(p, g.res)
	eh := rh + g.res
	ev := rv + g.res
	for dz := -nv; dz <= nv; dz++ {
		for dy := -nh; dy <= nh; dy++ {
			for dx := -nh; dx <= nh; dx++ {
				k := packKey(ix+dx, iy+dy, iz+dz)
				if !g.occupied.has(int64(k)) {
					continue
				}
				c := keyCenter(k, g.res)
				ddx, ddy, ddz := c.X-p.X, c.Y-p.Y, c.Z-p.Z
				if (ddx*ddx+ddy*ddy)/(eh*eh)+(ddz*ddz)/(ev*ev) <= 1 {
					return true
				}
			}
		}
	}
	return false
}

// Resolution implements Map.
func (g *LocalGrid) Resolution() float64 { return g.res }

// InflationRadius implements Map.
func (g *LocalGrid) InflationRadius() float64 { return g.inflation }

// MemoryBytes implements Map. The window counts in full whether or not
// its buffer has been acquired yet: the deployed grid allocates it up
// front.
func (g *LocalGrid) MemoryBytes() int {
	return g.nx*g.ny*g.nz*9 + g.occupied.n*16 + g.inflated.n*20
}

// OccupiedVoxels implements Map.
func (g *LocalGrid) OccupiedVoxels() int { return g.occupied.n }

var _ Map = (*LocalGrid)(nil)
