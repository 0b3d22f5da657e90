package mapping

// voxelTable is an open-addressing hash table from packed voxel keys to
// int32 counts, replacing Go maps on the octree's hottest query paths
// (Blocked probes from planners run per collision-check step, occupancy
// and inflation bookkeeping per depth-cloud voxel).
//
// Linear probing with backward-shift deletion; capacity is a power of two
// and grows at 3/4 load. All operations are value-deterministic — nothing
// observable depends on insertion history beyond the key/value contents —
// so swapping this in for a map cannot change simulation results.
type voxelTable struct {
	keys []int64 // emptySlot marks a free slot
	vals []int32
	n    int
	mask int
}

const emptySlot = int64(-1) // packKey never produces negative keys

// newVoxelTable returns a table with capacity for hint entries.
func newVoxelTable(hint int) voxelTable {
	capPow := 16
	for capPow*3/4 < hint {
		capPow *= 2
	}
	t := voxelTable{
		keys: make([]int64, capPow),
		vals: make([]int32, capPow),
		mask: capPow - 1,
	}
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	return t
}

// reset empties the table, keeping its capacity.
func (t *voxelTable) reset() {
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	t.n = 0
}

// slot hashes k to its home slot.
func (t *voxelTable) slot(k int64) int {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return int(h>>33) & t.mask
}

// get returns the value stored under k, 0 when absent.
func (t *voxelTable) get(k int64) int32 {
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		kk := t.keys[i]
		if kk == k {
			return t.vals[i]
		}
		if kk == emptySlot {
			return 0
		}
	}
}

// has reports whether k is present.
func (t *voxelTable) has(k int64) bool {
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		kk := t.keys[i]
		if kk == k {
			return true
		}
		if kk == emptySlot {
			return false
		}
	}
}

// put stores v under k (v must be non-zero; zero means absent).
func (t *voxelTable) put(k int64, v int32) {
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		kk := t.keys[i]
		if kk == k {
			t.vals[i] = v
			return
		}
		if kk == emptySlot {
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			return
		}
	}
}

// del removes k if present, backward-shifting the probe chain so lookups
// never need tombstones.
func (t *voxelTable) del(k int64) {
	i := t.slot(k)
	for {
		kk := t.keys[i]
		if kk == emptySlot {
			return
		}
		if kk == k {
			break
		}
		i = (i + 1) & t.mask
	}
	t.n--
	for {
		t.keys[i] = emptySlot
		j := i
		for {
			j = (j + 1) & t.mask
			kk := t.keys[j]
			if kk == emptySlot {
				return
			}
			// kk may fill the hole only if its home slot does not lie in
			// the (cyclic) open interval (i, j] — otherwise moving it would
			// break its own probe chain.
			home := t.slot(kk)
			if (j-home)&t.mask >= (j-i)&t.mask {
				t.keys[i] = kk
				t.vals[i] = t.vals[j]
				i = j
				break
			}
		}
	}
}

// grow doubles capacity and rehashes.
func (t *voxelTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]int64, len(oldKeys)*2)
	t.vals = make([]int32, len(oldVals)*2)
	t.mask = len(t.keys) - 1
	t.n = 0
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	for i, k := range oldKeys {
		if k != emptySlot {
			t.put(k, oldVals[i])
		}
	}
}
