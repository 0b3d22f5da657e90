package planning

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mapping"
)

// AStarConfig tunes the EGO-style grid search.
type AStarConfig struct {
	// MaxExpansions is the search-pool size: the real-time compute budget
	// the paper's §II-B blames for failures near large obstacles.
	MaxExpansions int
	// Horizon is the receding planning radius in meters. Goals beyond it
	// are projected onto the horizon sphere, and the vehicle replans as it
	// advances — EGO-Planner's local behavior.
	Horizon float64
	// MinZ and MaxZ bound the altitude corridor the search may use.
	MinZ, MaxZ float64
	// Res is the planning-lattice spacing in meters. Planning on a lattice
	// coarser than the map keeps the pool budget meaningful in real time,
	// as EGO-Planner does; clearance remains guaranteed by the map's
	// inflation layer.
	Res float64
}

// DefaultAStarConfig returns the MLS-V2 tuning.
func DefaultAStarConfig() AStarConfig {
	return AStarConfig{
		MaxExpansions: 6000,
		Horizon:       25,
		MinZ:          0.8,
		MaxZ:          40,
		Res:           1.0,
	}
}

// AStar is the bounded-pool voxel-grid A* planner of MLS-V2.
//
// The search state — node table, node arena, open heap and path buffers —
// lives on the planner and is reused by every Plan call, so repeated plans
// allocate nothing once the buffers have grown to the mission's search
// size. A planner is single-goroutine.
type AStar struct {
	Cfg AStarConfig

	index   map[gridKey]int32 // lattice key -> position in nodes
	nodes   []astarNode
	open    []openItem // binary min-heap on f
	offsets []astarOffset
	rev     []geom.Vec3 // extract's reversed waypoints
	path    []geom.Vec3 // the returned path
}

// NewAStar returns an A* planner with the given configuration.
func NewAStar(cfg AStarConfig) *AStar {
	if cfg.MaxExpansions <= 0 {
		cfg.MaxExpansions = 6000
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 25
	}
	if cfg.MaxZ <= cfg.MinZ {
		cfg.MaxZ = cfg.MinZ + 30
	}
	if cfg.Res <= 0 {
		cfg.Res = 1.0
	}
	return &AStar{Cfg: cfg, index: make(map[gridKey]int32, 1024)}
}

// Name implements Planner.
func (a *AStar) Name() string { return "astar-local" }

// node keys pack voxel indices relative to the start voxel.
type gridKey struct{ x, y, z int16 }

type astarNode struct {
	key    gridKey
	g, f   float64
	parent gridKey
	closed bool
}

// openItem is the heap entry.
type openItem struct {
	key gridKey
	f   float64
}

// astarOffset is one step of the 26-connected neighborhood with its
// Euclidean cost.
type astarOffset struct {
	dx, dy, dz int16
	cost       float64
}

// push and pop keep a.open a binary min-heap on f with exactly
// container/heap's sift order, so equal-f ties resolve as they always
// have.
func (a *AStar) push(it openItem) {
	a.open = append(a.open, it)
	h := a.open
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (a *AStar) pop() openItem {
	h := a.open
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].f < h[j1].f {
			j = j2
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	a.open = h[:n]
	return it
}

// node returns the node for key k, creating it with g = +Inf.
func (a *AStar) node(k gridKey) int32 {
	if i, ok := a.index[k]; ok {
		return i
	}
	i := int32(len(a.nodes))
	a.nodes = append(a.nodes, astarNode{key: k, g: math.Inf(1)})
	a.index[k] = i
	return i
}

// neighborhood returns the 26-connected lattice steps at resolution res,
// computed on first use.
func (a *AStar) neighborhood(res float64) []astarOffset {
	if a.offsets != nil {
		return a.offsets
	}
	for dz := int16(-1); dz <= 1; dz++ {
		for dy := int16(-1); dy <= 1; dy++ {
			for dx := int16(-1); dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				c := math.Sqrt(float64(dx*dx+dy*dy+dz*dz)) * res
				a.offsets = append(a.offsets, astarOffset{dx, dy, dz, c})
			}
		}
	}
	return a.offsets
}

// lattice maps planning-lattice keys to world points around start.
type lattice struct {
	start geom.Vec3
	res   float64
}

func (l lattice) world(k gridKey) geom.Vec3 {
	return l.start.Add(geom.V3(float64(k.x)*l.res, float64(k.y)*l.res, float64(k.z)*l.res))
}

// Plan implements Planner. The returned path ends at the goal if it lies
// within the horizon, otherwise at the horizon projection of the goal. It
// is the planner's own buffer, valid until the next Plan call.
func (a *AStar) Plan(start, goal geom.Vec3, m mapping.Map) ([]geom.Vec3, error) {
	res := a.Cfg.Res

	// Receding horizon: clamp the goal to the planning sphere.
	target := goal
	if d := goal.Sub(start); d.Len() > a.Cfg.Horizon {
		target = start.Add(d.ClampLen(a.Cfg.Horizon))
	}
	target = geom.V3(target.X, target.Y, geom.Clamp(target.Z, a.Cfg.MinZ, a.Cfg.MaxZ))

	var ok bool
	if start, ok = liftClear(m, start, a.Cfg.MaxZ, 1.5); !ok {
		return nil, ErrStartBlocked
	}
	if target, ok = liftClear(m, target, a.Cfg.MaxZ, 4); !ok {
		return nil, ErrGoalBlocked
	}

	lat := lattice{start: start, res: res}
	goalKey := gridKey{
		x: int16(math.Round((target.X - start.X) / res)),
		y: int16(math.Round((target.Y - start.Y) / res)),
		z: int16(math.Round((target.Z - start.Z) / res)),
	}

	clear(a.index)
	a.nodes = a.nodes[:0]
	a.open = a.open[:0]
	startKey := gridKey{}
	si := a.node(startKey)
	a.nodes[si].g = 0
	a.nodes[si].f = lat.world(startKey).Dist(target)
	a.open = append(a.open, openItem{key: startKey, f: a.nodes[si].f})

	offsets := a.neighborhood(res)
	horizonSq := (a.Cfg.Horizon + 2) * (a.Cfg.Horizon + 2)
	expansions := 0
	for len(a.open) > 0 {
		it := a.pop()
		ni := a.index[it.key]
		n := &a.nodes[ni]
		if n.closed || it.f > n.f {
			continue
		}
		n.closed = true
		if n.key == goalKey {
			return a.extract(ni, lat, target, m), nil
		}
		expansions++
		if expansions > a.Cfg.MaxExpansions {
			// Pool exhausted: the MLS-V2 large-obstacle failure.
			return nil, ErrSearchExhausted
		}
		// Creating neighbors may grow the arena, so n is not used below.
		nKey, nG := n.key, n.g
		nWorld := lat.world(nKey)
		for _, off := range offsets {
			nk := gridKey{nKey.x + off.dx, nKey.y + off.dy, nKey.z + off.dz}
			w := lat.world(nk)
			if w.Z < a.Cfg.MinZ || w.Z > a.Cfg.MaxZ {
				continue
			}
			if w.Sub(start).LenSq() > horizonSq {
				continue
			}
			if m.Blocked(w) {
				continue
			}
			// Guard diagonal corner-cutting on the coarse lattice: the
			// midpoint of a multi-axis step must be clear too.
			if (off.dx != 0 && off.dy != 0) || (off.dx != 0 && off.dz != 0) || (off.dy != 0 && off.dz != 0) {
				if m.Blocked(nWorld.Lerp(w, 0.5)) {
					continue
				}
			}
			ng := nG + off.cost
			nb := &a.nodes[a.node(nk)]
			if nb.closed || ng >= nb.g {
				continue
			}
			nb.g = ng
			nb.f = ng + w.Dist(target)
			nb.parent = nKey
			a.push(openItem{key: nk, f: nb.f})
		}
	}
	return nil, ErrNoPath
}

// extract rebuilds the waypoint path from the closed set and shortcuts it
// into the planner's path buffer.
func (a *AStar) extract(ni int32, lat lattice, target geom.Vec3, m mapping.Map) []geom.Vec3 {
	rev := append(a.rev[:0], target)
	for n := &a.nodes[ni]; n.key != (gridKey{}); n = &a.nodes[a.index[n.parent]] {
		rev = append(rev, lat.world(n.key))
	}
	rev = append(rev, lat.world(gridKey{}))
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	a.rev = rev
	a.path = shortcutInto(a.path[:0], m, rev, m.Resolution()/2)
	return a.path
}

var _ Planner = (*AStar)(nil)
