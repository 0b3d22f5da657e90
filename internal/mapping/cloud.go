package mapping

import "repro/internal/geom"

// cloudScratch is the per-capture voxel dedup state of the InsertCloud
// implementations: an epoch-stamped open-addressing set over packed voxel
// keys plus the capture's free and occupied voxels in first-touch order.
//
// A slot is live only while its stamp equals the current epoch, so
// starting a new capture is one increment instead of clearing the table;
// the lists are truncated, keeping their capacity. Steady-state captures
// therefore allocate nothing. Every map consumer applies updates to
// distinct voxels, which commute, so the visit order — first touch here,
// hash order with the Go maps this replaced — never reaches a result.
type cloudScratch struct {
	slots []cloudSlot
	mask  int
	epoch uint32
	n     int // live slots this epoch

	// free and occ are the capture's voxels with one representative point
	// each: the voxel center for pass-through voxels, the ray endpoint
	// for endpoint voxels. After collect, no voxel is in both.
	free []cloudVoxel
	occ  []cloudVoxel
}

// cloudSlot is one set entry: the voxel's membership flags for the epoch
// it was stamped in.
type cloudSlot struct {
	key    voxelKey
	epoch  uint32
	inFree bool
	inOcc  bool
}

// cloudVoxel is one deduplicated voxel update.
type cloudVoxel struct {
	key voxelKey
	p   geom.Vec3
}

// cloudMinSlots is the initial set capacity: a forward depth fan touches
// a few thousand distinct voxels per capture at the maps' resolutions.
const cloudMinSlots = 4096

// reset starts a new capture.
func (c *cloudScratch) reset() {
	if c.slots == nil {
		c.slots = make([]cloudSlot, cloudMinSlots)
		c.mask = cloudMinSlots - 1
	}
	c.epoch++
	if c.epoch == 0 { // stamp wrapped: old stamps could alias, clear them
		clear(c.slots)
		c.epoch = 1
	}
	c.n = 0
	c.free = c.free[:0]
	c.occ = c.occ[:0]
}

// slot returns k's live slot this epoch, stamping a fresh one when k has
// not been touched yet.
func (c *cloudScratch) slot(k voxelKey) *cloudSlot {
	for i := int(uint64(k)*0x9E3779B97F4A7C15>>33) & c.mask; ; i = (i + 1) & c.mask {
		s := &c.slots[i]
		if s.epoch != c.epoch {
			if (c.n+1)*2 > len(c.slots) {
				c.grow()
				return c.slot(k)
			}
			*s = cloudSlot{key: k, epoch: c.epoch}
			c.n++
			return s
		}
		if s.key == k {
			return s
		}
	}
}

// grow doubles the table and re-stamps this capture's voxels from the
// lists, which hold every live key.
func (c *cloudScratch) grow() {
	c.slots = make([]cloudSlot, 2*len(c.slots))
	c.mask = len(c.slots) - 1
	c.n = 0
	for _, v := range c.free {
		c.slot(v.key).inFree = true
	}
	for _, v := range c.occ {
		c.slot(v.key).inOcc = true
	}
}

// addFree records k as observed free unless the capture already did.
func (c *cloudScratch) addFree(k voxelKey, p geom.Vec3) {
	if s := c.slot(k); !s.inFree {
		s.inFree = true
		c.free = append(c.free, cloudVoxel{k, p})
	}
}

// collect walks every ray once, recording each touched voxel at most once
// as free (pass-through) and each surface endpoint at most once as
// occupied. Occupied wins over free for the same voxel within a capture.
func (c *cloudScratch) collect(res float64, origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	c.reset()
	for i, end := range ends {
		walkRay(origin, end, res, func(ix, iy, iz int) bool {
			c.addFree(packKey(ix, iy, iz), voxelCenter(ix, iy, iz, res))
			return true
		})
		ex, ey, ez := voxelOf(end, res)
		k := packKey(ex, ey, ez)
		if i < len(hits) && hits[i] {
			if s := c.slot(k); !s.inOcc {
				s.inOcc = true
				c.occ = append(c.occ, cloudVoxel{k, end})
			}
		} else {
			c.addFree(k, end)
		}
	}
	if len(c.occ) == 0 {
		return
	}
	kept := c.free[:0]
	for _, v := range c.free {
		if !c.slot(v.key).inOcc {
			kept = append(kept, v)
		}
	}
	c.free = kept
}
