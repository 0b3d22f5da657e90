package mapping

import "sync"

// Recycled map storage.
//
// A mission's map becomes garbage the moment the mission ends, and the
// next mission on the same worker builds one of the same shape. The heavy
// storage — the occupancy and inflation tables, the capture dedup set, the
// octree's node and child-block arenas, and the LocalGrid window bricks — is
// therefore handed back through Release and cleared before it is handed
// out again, so a recycled buffer reads exactly like a fresh allocation.
// The pools are process-wide and safe for concurrent missions; an object
// is owned by exactly one map between acquire and Release.
//
// Arena chunks are pooled one by one, not per map: a map holds exactly the
// chunks it has filled, whatever the largest map before it needed, and
// chunks left idle in the pool are dropped by the garbage collector.

// mapStore is the recyclable storage of one LocalGrid or Octree. The map
// keeps working copies of the table and dedup-set headers in its own
// fields (the hot paths stay one indirection deep) and writes them back
// on Release.
type mapStore struct {
	occupied, inflated voxelTable
	cloud              cloudScratch

	// The arena chunks the map has taken, returned on Release.
	nodes  []*nodeChunk
	blocks []*blockChunk
	bricks []*brickChunk

	// Octree free lists of pruned nodes and blocks.
	freeNodes  []*octNode
	freeBlocks []*childBlock

	// LocalGrid per-brick index.
	index []*windowBrick
}

// Separate pools per map kind: a LocalGrid's tables stay sized for a
// sliding window, an octree's for a whole mission's world.
var (
	localStores sync.Pool // *mapStore
	octStores   sync.Pool // *mapStore
)

// getStore returns cleared storage from p, or fresh storage with tables
// sized for the hints.
func getStore(p *sync.Pool, occHint, inflHint int) *mapStore {
	if s, ok := p.Get().(*mapStore); ok {
		s.occupied.reset()
		s.inflated.reset()
		return s
	}
	return &mapStore{occupied: newVoxelTable(occHint), inflated: newVoxelTable(inflHint)}
}

// putStore returns the map's arena chunks to their pools and the storage
// to p.
func putStore(p *sync.Pool, s *mapStore) {
	giveBack(&nodeChunks, &s.nodes)
	giveBack(&blockChunks, &s.blocks)
	giveBack(&brickChunks, &s.bricks)
	clear(s.freeNodes)
	clear(s.freeBlocks)
	s.freeNodes, s.freeBlocks = s.freeNodes[:0], s.freeBlocks[:0]
	p.Put(s)
}

// Arena chunks: the tree allocates tens of thousands of small nodes and a
// window thousands of bricks, and individual allocations would dominate GC
// cost.
type (
	nodeChunk  [1024]octNode
	blockChunk [256]childBlock
	brickChunk [64]windowBrick
)

var nodeChunks, blockChunks, brickChunks sync.Pool

// take hands out a cleared chunk from p and records it in owned.
func take[C any](p *sync.Pool, owned *[]*C) *C {
	c, ok := p.Get().(*C)
	if ok {
		var zero C
		*c = zero
	} else {
		c = new(C)
	}
	*owned = append(*owned, c)
	return c
}

// giveBack returns every chunk in owned to p.
func giveBack[C any](p *sync.Pool, owned *[]*C) {
	for i, c := range *owned {
		p.Put(c)
		(*owned)[i] = nil
	}
	*owned = (*owned)[:0]
}

// brickIndex returns a cleared per-brick index of n entries.
func (s *mapStore) brickIndex(n int) []*windowBrick {
	if cap(s.index) < n {
		s.index = make([]*windowBrick, n)
	}
	s.index = s.index[:n]
	clear(s.index)
	return s.index
}
