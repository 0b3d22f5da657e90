package detect

import (
	"math"
	"sync"

	"repro/internal/vision"
)

// component is a connected dark region with the statistics the candidate
// filters need.
type component struct {
	area          int
	minX, minY    int
	maxX, maxY    int
	cx, cy        float64 // centroid
	angle         float64 // min-area-rect orientation, radians in [0, pi/2)
	width, height float64 // min-area-rect extents (width >= height)
}

// bboxW and bboxH return the axis-aligned bounding-box extents.
func (c *component) bboxW() int { return c.maxX - c.minX + 1 }
func (c *component) bboxH() int { return c.maxY - c.minY + 1 }

// detScratch holds the per-detector reusable buffers of the shared
// proposal pipeline — integral image, threshold mask, flood-fill state,
// the component and pixel arenas, and the detection output — so
// steady-state detection allocates nothing per frame. Each detector
// instance owns one (detectors are single-goroutine) and hands it back to
// a process-wide pool on Release. Every buffer is overwritten or
// truncated before it is read, so a recycled scratch behaves exactly like
// a fresh one.
type detScratch struct {
	integral vision.Integral
	mask     []bool
	visited  []bool
	queue    []int
	rowMinX  []int32
	rowMaxX  []int32

	comps  []component // this frame's candidates
	pixels []int       // the component being filled, linear mask indices
	dets   []Detection // Detect's result, valid until the next call
}

// scratchPool recycles detector scratch across missions.
var scratchPool = sync.Pool{New: func() any { return new(detScratch) }}

// putScratch returns a detector's scratch, if it took one, to the pool.
func putScratch(s *detScratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// adaptiveThreshold returns a boolean mask of pixels darker than their
// neighborhood mean by at least offset. window is the half-width of the
// neighborhood. This mirrors OpenCV's ADAPTIVE_THRESH_MEAN_C binarization.
// The returned mask aliases the scratch and is valid until the next call.
func adaptiveThreshold(im *vision.Image, window int, offset float64, s *detScratch) []bool {
	s.integral.Compute(im)
	ig := &s.integral
	if cap(s.mask) < im.W*im.H {
		s.mask = make([]bool, im.W*im.H)
	}
	mask := s.mask[:im.W*im.H]
	// Border rows and columns need BoxMean's clamping; interior pixels —
	// the bulk of the frame — take the clamp-free path, which is
	// bit-identical on in-bounds windows.
	xIn0, xIn1 := window, im.W-1-window
	for y := 0; y < im.H; y++ {
		base := y * im.W
		if y < window || y+window >= im.H || xIn0 > xIn1 {
			for x := 0; x < im.W; x++ {
				m := ig.BoxMean(x-window, y-window, x+window, y+window)
				mask[base+x] = im.Pix[base+x] < m-offset
			}
			continue
		}
		y0, y1 := y-window, y+window
		for x := 0; x < xIn0; x++ {
			m := ig.BoxMean(x-window, y0, x+window, y1)
			mask[base+x] = im.Pix[base+x] < m-offset
		}
		for x := xIn0; x <= xIn1; x++ {
			m := ig.BoxMeanInterior(x-window, y0, x+window, y1)
			mask[base+x] = im.Pix[base+x] < m-offset
		}
		for x := xIn1 + 1; x < im.W; x++ {
			m := ig.BoxMean(x-window, y0, x+window, y1)
			mask[base+x] = im.Pix[base+x] < m-offset
		}
	}
	return mask
}

// findComponents labels 4-connected dark regions in the mask and returns
// those within the plausible marker size band. Flood-fill state and the
// returned components live in the scratch arena: the slice is valid until
// the next call, and steady-state frames allocate nothing.
func findComponents(mask []bool, w, h int, s *detScratch) []component {
	if w == 0 || h == 0 {
		return nil
	}
	maxArea := int(maxComponentFrac * float64(w*h))
	if cap(s.visited) < len(mask) {
		s.visited = make([]bool, len(mask))
	}
	visited := s.visited[:len(mask)]
	for i := range visited {
		visited[i] = false
	}
	if s.queue == nil {
		s.queue = make([]int, 0, 256)
	}
	queue := s.queue
	comps := s.comps[:0]
	for start := range mask {
		if !mask[start] || visited[start] {
			continue
		}
		// BFS flood fill.
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = true
		c := component{minX: w, minY: h}
		pixels := s.pixels[:0]
		var sx, sy float64
		for len(queue) > 0 {
			idx := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := idx%w, idx/w
			c.area++
			pixels = append(pixels, idx)
			sx += float64(x)
			sy += float64(y)
			if x < c.minX {
				c.minX = x
			}
			if x > c.maxX {
				c.maxX = x
			}
			if y < c.minY {
				c.minY = y
			}
			if y > c.maxY {
				c.maxY = y
			}
			// 4-neighbors.
			if x > 0 && mask[idx-1] && !visited[idx-1] {
				visited[idx-1] = true
				queue = append(queue, idx-1)
			}
			if x < w-1 && mask[idx+1] && !visited[idx+1] {
				visited[idx+1] = true
				queue = append(queue, idx+1)
			}
			if y > 0 && mask[idx-w] && !visited[idx-w] {
				visited[idx-w] = true
				queue = append(queue, idx-w)
			}
			if y < h-1 && mask[idx+w] && !visited[idx+w] {
				visited[idx+w] = true
				queue = append(queue, idx+w)
			}
		}
		s.pixels = pixels
		if c.area < minComponentArea || c.area > maxArea {
			continue
		}
		c.cx = sx / float64(c.area)
		c.cy = sy / float64(c.area)
		fitMinAreaRect(&c, pixels, w, s)
		comps = append(comps, c)
	}
	s.queue = queue[:0]
	s.comps = comps
	return comps
}

// fitMinAreaRect sweeps candidate orientations and records the rotation
// minimizing the projected bounding-rectangle area of the component whose
// mask indices are pixels. A square marker border
// is rotation-ambiguous mod 90°, which the decoders resolve separately by
// trying all four rotations of the bit grid.
//
// The sweep only needs each row's leftmost and rightmost pixel: every
// candidate angle theta in [0°, 90°) has cos(theta) > 0, so along a fixed
// row both projections u = x cos + y sin and v = -x sin + y cos attain
// their extremes at the row's extreme x. Scanning those 2·rows pixels
// yields bit-identical extents to scanning the whole component.
func fitMinAreaRect(c *component, pixels []int, stride int, s *detScratch) {
	rows := c.maxY - c.minY + 1
	if cap(s.rowMinX) < rows {
		s.rowMinX = make([]int32, rows)
		s.rowMaxX = make([]int32, rows)
	}
	rowMinX := s.rowMinX[:rows]
	rowMaxX := s.rowMaxX[:rows]
	for i := range rowMinX {
		rowMinX[i] = int32(stride)
		rowMaxX[i] = -1
	}
	for _, idx := range pixels {
		x, y := int32(idx%stride), idx/stride-c.minY
		if x < rowMinX[y] {
			rowMinX[y] = x
		}
		if x > rowMaxX[y] {
			rowMaxX[y] = x
		}
	}

	const steps = 18 // 5° resolution over [0°, 90°)
	bestArea := math.Inf(1)
	for s := 0; s < steps; s++ {
		theta := float64(s) * (math.Pi / 2) / steps
		cos, sin := math.Cos(theta), math.Sin(theta)
		minU, maxU := math.Inf(1), math.Inf(-1)
		minV, maxV := math.Inf(1), math.Inf(-1)
		for ry := 0; ry < rows; ry++ {
			if rowMaxX[ry] < 0 {
				continue // row without pixels (components need not be convex)
			}
			y := float64(ry + c.minY)
			for _, xi := range [2]int32{rowMinX[ry], rowMaxX[ry]} {
				x := float64(xi)
				u := x*cos + y*sin
				v := -x*sin + y*cos
				if u < minU {
					minU = u
				}
				if u > maxU {
					maxU = u
				}
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
			}
		}
		w := maxU - minU + 1
		h := maxV - minV + 1
		if a := w * h; a < bestArea {
			bestArea = a
			c.angle = theta
			if w >= h {
				c.width, c.height = w, h
			} else {
				c.width, c.height = h, w
			}
		}
	}
}

// squareness returns height/width of the min-area rectangle in (0, 1];
// 1 means perfectly square.
func (c *component) squareness() float64 {
	if c.width == 0 {
		return 0
	}
	return c.height / c.width
}

// fillRatio returns the fraction of the min-area rectangle covered by dark
// pixels. A marker border ring plus dark code bits lands mid-range; solid
// blobs (rocks, roof edges) approach 1.
func (c *component) fillRatio() float64 {
	r := c.width * c.height
	if r <= 0 {
		return 0
	}
	return float64(c.area) / r
}
