package mapping

import (
	"math"

	"repro/internal/geom"
)

// Octree log-odds parameters, matching OctoMap's defaults: hits push a cell
// toward occupied faster than misses pull it back, and values are clamped
// so cells can change their mind after a bounded number of contradicting
// observations.
const (
	logOddsHit  = 0.85
	logOddsMiss = -0.4
	logOddsMin  = -2.0
	logOddsMax  = 3.5
	// occupiedThreshold is the log-odds above which a leaf counts as
	// occupied (probability ≈ 0.65).
	occupiedThreshold = 0.6
	// freeThreshold below which a leaf counts as observed-free.
	freeThreshold = -0.2
)

// octNode is one octree node. Leaves have nil children; an inner node's
// logOdds is unused. The zero logOdds on a fresh leaf means "unknown".
type octNode struct {
	children *[8]*octNode
	logOdds  float32
	observed bool
}

// Octree is the OctoMap-style probabilistic occupancy map adopted by
// MLS-V3 (§III-B): hierarchical space partitioning with log-odds updates,
// pruning of homogeneous regions, and O(1) inflated clearance queries via
// a reference-counted inflation layer.
type Octree struct {
	center    geom.Vec3
	halfSize  float64
	res       float64
	inflation float64
	depth     int
	root      *octNode

	nodes       int
	childArrays int

	occupied voxelTable
	inflated voxelTable
	// inflBall caches the voxel-offset ball for the inflation radius.
	inflBall [][3]int

	scratch cloudScratch
	// store is the recyclable storage behind the tables, the dedup set and
	// the node arenas (pool.go); nil after Release. nodeArena/childArena
	// are the unused tails of the current chunks.
	store      *mapStore
	nodeArena  []octNode
	childArena []childBlock
	// free lists recycle pruned nodes and child blocks: expansion/prune
	// churn in steady state would otherwise leak arena chunks and feed GC.
	freeNodes  []*octNode
	freeBlocks []*childBlock
}

type childBlock = [8]*octNode

// NewOctree builds an octree centered at center covering a cube of the
// given half-size, with leaf resolution res and obstacle inflation radius
// inflation.
func NewOctree(center geom.Vec3, halfSize, res, inflation float64) *Octree {
	if res <= 0 {
		res = 0.5
	}
	if halfSize < res {
		halfSize = res
	}
	depth := 0
	for size := res; size < 2*halfSize; size *= 2 {
		depth++
	}
	// Snap the center onto the voxel lattice so octree leaves coincide
	// with the absolute voxel grid used by the occupied/inflated layers.
	center = geom.V3(
		math.Round(center.X/res)*res,
		math.Round(center.Y/res)*res,
		math.Round(center.Z/res)*res,
	)
	st := getStore(&octStores, 1024, 4096)
	o := &Octree{
		center:     center,
		halfSize:   math.Ldexp(res, depth) / 2, // snap so leaves are exactly res
		res:        res,
		inflation:  inflation,
		depth:      depth,
		root:       new(octNode),
		nodes:      1,
		occupied:   st.occupied,
		inflated:   st.inflated,
		scratch:    st.cloud,
		store:      st,
		freeNodes:  st.freeNodes,
		freeBlocks: st.freeBlocks,
	}
	r := int(inflation/res) + 1
	rr := inflation + res
	for dz := -r; dz <= r; dz++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				d := geom.V3(float64(dx), float64(dy), float64(dz)).Scale(res)
				if d.LenSq() <= rr*rr {
					o.inflBall = append(o.inflBall, [3]int{dx, dy, dz})
				}
			}
		}
	}
	return o
}

// newNode allocates a node from the free list or the arena.
func (o *Octree) newNode() *octNode {
	o.nodes++
	if n := len(o.freeNodes); n > 0 {
		nd := o.freeNodes[n-1]
		o.freeNodes = o.freeNodes[:n-1]
		return nd
	}
	if len(o.nodeArena) == 0 {
		o.nodeArena = take(&nodeChunks, &o.store.nodes)[:]
	}
	n := &o.nodeArena[0]
	o.nodeArena = o.nodeArena[1:]
	return n
}

// newChildren allocates a child-pointer block from the free list or arena.
func (o *Octree) newChildren() *childBlock {
	o.childArrays++
	if n := len(o.freeBlocks); n > 0 {
		c := o.freeBlocks[n-1]
		o.freeBlocks = o.freeBlocks[:n-1]
		return c
	}
	if len(o.childArena) == 0 {
		o.childArena = take(&blockChunks, &o.store.blocks)[:]
	}
	c := &o.childArena[0]
	o.childArena = o.childArena[1:]
	return c
}

// InsertCloud implements Map with per-capture voxel dedup.
func (o *Octree) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	o.scratch.collect(o.res, origin, ends, hits)
	for _, v := range o.scratch.free {
		o.update(v.p, logOddsMiss)
	}
	for _, v := range o.scratch.occ {
		o.update(v.p, logOddsHit)
	}
}

// Release hands the octree's storage back for reuse by a later map (see
// pool.go). Call it once nothing reads the map any more: the mission has
// ended and every stage that plans against it has drained. The octree is
// unusable afterwards. Release is idempotent.
func (o *Octree) Release() {
	st := o.store
	if st == nil {
		return
	}
	st.occupied, st.inflated, st.cloud = o.occupied, o.inflated, o.scratch
	st.freeNodes, st.freeBlocks = o.freeNodes, o.freeBlocks
	*o = Octree{}
	putStore(&octStores, st)
}

// contains reports whether p lies inside the octree cube.
func (o *Octree) contains(p geom.Vec3) bool {
	d := p.Sub(o.center).Abs()
	return d.X <= o.halfSize && d.Y <= o.halfSize && d.Z <= o.halfSize
}

// State implements Map.
func (o *Octree) State(p geom.Vec3) VoxelState {
	if !o.contains(p) {
		return Unknown
	}
	n := o.root
	c := o.center
	half := o.halfSize
	for n.children != nil {
		half /= 2
		idx := 0
		if p.X >= c.X {
			idx |= 1
			c.X += half
		} else {
			c.X -= half
		}
		if p.Y >= c.Y {
			idx |= 2
			c.Y += half
		} else {
			c.Y -= half
		}
		if p.Z >= c.Z {
			idx |= 4
			c.Z += half
		} else {
			c.Z -= half
		}
		child := n.children[idx]
		if child == nil {
			return Unknown
		}
		n = child
	}
	if !n.observed {
		return Unknown
	}
	if n.logOdds > occupiedThreshold {
		return Occupied
	}
	if n.logOdds < freeThreshold {
		return Free
	}
	return Unknown
}

// Blocked implements Map: a single hash probe against the reference-
// counted inflation layer.
func (o *Octree) Blocked(p geom.Vec3) bool {
	ix, iy, iz := voxelOf(p, o.res)
	return o.inflated.get(int64(packKey(ix, iy, iz))) > 0
}

// InsertRay implements Map.
func (o *Octree) InsertRay(origin, end geom.Vec3, hit bool) {
	walkRay(origin, end, o.res, func(ix, iy, iz int) bool {
		o.update(voxelCenter(ix, iy, iz, o.res), logOddsMiss)
		return true
	})
	if hit {
		o.update(end, logOddsHit)
	} else {
		o.update(end, logOddsMiss)
	}
}

// update applies a log-odds delta to the leaf containing p, expanding
// pruned regions on the way down and re-pruning on the way back up.
// The descent reports the resulting leaf value directly, which saves the
// second root-to-leaf descent a State query would cost.
func (o *Octree) update(p geom.Vec3, delta float32) {
	if !o.contains(p) {
		return
	}
	lo, observed := o.updateLeaf(p, delta)

	occ := observed && lo > occupiedThreshold
	ix, iy, iz := voxelOf(p, o.res)
	k := packKey(ix, iy, iz)
	wasOcc := o.occupied.has(int64(k))
	if occ && !wasOcc {
		o.occupied.put(int64(k), 1)
		o.paintInflation(ix, iy, iz, 1)
	} else if !occ && wasOcc {
		o.occupied.del(int64(k))
		o.paintInflation(ix, iy, iz, -1)
	}
}

func (o *Octree) paintInflation(ix, iy, iz int, delta int32) {
	for _, d := range o.inflBall {
		k := packKey(ix+d[0], iy+d[1], iz+d[2])
		v := o.inflated.get(int64(k)) + delta
		if v <= 0 {
			o.inflated.del(int64(k))
		} else {
			o.inflated.put(int64(k), v)
		}
	}
}

// updateLeaf descends to the leaf at max depth, creating and expanding
// nodes as needed, then prunes homogeneous children while unwinding an
// explicit ancestor stack (the loop form of the former recursive descent,
// bit-identical in float ops and prune order but without the per-level
// call overhead — this is the hottest path of every depth-cloud fusion).
// It returns the leaf's resulting log-odds and observed flag — the values
// a State query at p would see.
//
// One flag tracks "anything mutated": expansions cascade to the leaf (a
// pushed-down child repeats its parent's failed saturation check), so the
// saturation short-circuit can only fire when no node above it expanded —
// exactly the no-mutation case. A no-change update cannot create prune
// opportunities (the tree is fully pruned after every mutating update), so
// the unwind then skips the sibling-uniformity checks entirely.
func (o *Octree) updateLeaf(p geom.Vec3, delta float32) (float32, bool) {
	// stack holds the path of inner nodes above the current one; the tree
	// is at most ~32 levels deep for any sane halfSize/res ratio.
	var stack [32]*octNode
	n := o.root
	c := o.center
	half := o.halfSize
	level := 0
	changed := false
	for level < o.depth {
		if n.children == nil {
			if n.observed {
				// Saturation short-circuit: this pruned region is uniform at
				// n.logOdds; if the clamped update leaves the leaf's value
				// unchanged (log-odds pinned at a clamp bound), the expand →
				// update → re-prune round trip reproduces the exact pre-call
				// tree, so skip it. Steady-state misses through established
				// free space and hits on saturated surfaces all take this path.
				nv := n.logOdds + delta
				if nv > logOddsMax {
					nv = logOddsMax
				}
				if nv < logOddsMin {
					nv = logOddsMin
				}
				if nv == n.logOdds {
					return n.logOdds, true
				}
			}
			// Expand: push the aggregated value down to fresh children.
			changed = true
			n.children = o.newChildren()
			if n.observed {
				for i := range n.children {
					ch := o.newNode()
					ch.logOdds = n.logOdds
					ch.observed = true
					n.children[i] = ch
				}
			}
		}
		stack[level] = n
		half /= 2
		idx := 0
		if p.X >= c.X {
			idx |= 1
			c.X += half
		} else {
			c.X -= half
		}
		if p.Y >= c.Y {
			idx |= 2
			c.Y += half
		} else {
			c.Y -= half
		}
		if p.Z >= c.Z {
			idx |= 4
			c.Z += half
		} else {
			c.Z -= half
		}
		child := n.children[idx]
		if child == nil {
			child = o.newNode()
			child.logOdds = 0
			child.observed = false
			n.children[idx] = child
			changed = true
		}
		n = child
		level++
	}
	wasObs, wasLo := n.observed, n.logOdds
	n.observed = true
	n.logOdds += delta
	if n.logOdds > logOddsMax {
		n.logOdds = logOddsMax
	}
	if n.logOdds < logOddsMin {
		n.logOdds = logOddsMin
	}
	if changed || !wasObs || n.logOdds != wasLo {
		for l := level - 1; l >= 0; l-- {
			o.tryPrune(stack[l])
		}
	}
	return n.logOdds, true
}

// tryPrune collapses n's children into n when all eight exist, are leaves,
// and share identical state, recycling the freed nodes and block. This is
// OctoMap's compression step.
func (o *Octree) tryPrune(n *octNode) {
	first := n.children[0]
	if first == nil || first.children != nil {
		return
	}
	for _, ch := range n.children[1:] {
		if ch == nil || ch.children != nil ||
			ch.logOdds != first.logOdds || ch.observed != first.observed {
			return
		}
	}
	n.logOdds = first.logOdds
	n.observed = first.observed
	for i, ch := range n.children {
		o.freeNodes = append(o.freeNodes, ch)
		n.children[i] = nil
	}
	o.freeBlocks = append(o.freeBlocks, n.children)
	n.children = nil
	o.nodes -= 8
	o.childArrays--
}

// Resolution implements Map.
func (o *Octree) Resolution() float64 { return o.res }

// InflationRadius implements Map.
func (o *Octree) InflationRadius() float64 { return o.inflation }

// MemoryBytes implements Map. Node = 24 bytes (pointer + float + bool with
// padding); child array = 64 bytes; plus the auxiliary hash layers.
func (o *Octree) MemoryBytes() int {
	return o.nodes*24 + o.childArrays*64 + o.occupied.n*16 + o.inflated.n*20
}

// OccupiedVoxels implements Map.
func (o *Octree) OccupiedVoxels() int { return o.occupied.n }

// NodeCount returns the number of allocated tree nodes (compression
// metric for the grid-versus-octree experiment).
func (o *Octree) NodeCount() int { return o.nodes }

var _ Map = (*Octree)(nil)
