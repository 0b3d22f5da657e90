package detect

import (
	"math"

	"repro/internal/geom"
	"repro/internal/vision"
)

// Classical is the OpenCV-ArUco-style fixed detection pipeline used by
// MLS-V1 (paper §III-A): adaptive mean threshold, connected-component
// square candidates, 6x6 grid bit sampling, and dictionary matching.
//
// Its failure modes are structural, not tuned in: small apparent markers
// undersample the bit grid, local occlusion breaks the black-border check,
// and fog/glare collapse the adaptive threshold's contrast margin.
type Classical struct {
	Dict *vision.Dictionary

	// Window is the adaptive-threshold neighborhood half-width in pixels.
	Window int
	// Offset is the contrast margin a pixel must clear below its
	// neighborhood mean to count as dark.
	Offset float64
	// MaxHamming is the bit-error correction budget when matching the
	// decoded code against the dictionary.
	MaxHamming int
	// MaxBorderErrors is how many of the 20 border cells may fail the
	// black check before the candidate is rejected.
	MaxBorderErrors int
	// MinSidePx is the smallest decodable marker side; below ~2 px/cell
	// the grid is undersampled.
	MinSidePx float64

	scratch *detScratch // taken from the pool on first use, nil after Release
}

// NewClassical returns the pipeline with the OpenCV-equivalent defaults
// used throughout the evaluation.
func NewClassical(dict *vision.Dictionary) *Classical {
	return &Classical{
		Dict:            dict,
		Window:          9,
		Offset:          0.08,
		MaxHamming:      1,
		MaxBorderErrors: 1,
		MinSidePx:       12,
	}
}

// Name implements Detector.
func (c *Classical) Name() string { return "opencv-classical" }

// Detect implements Detector. The result is valid until the next call.
func (c *Classical) Detect(im *vision.Image) []Detection {
	if im.W == 0 || im.H == 0 {
		return nil
	}
	if c.scratch == nil {
		c.scratch = scratchPool.Get().(*detScratch)
	}
	s := c.scratch
	mask := adaptiveThreshold(im, c.Window, c.Offset, s)
	comps := findComponents(mask, im.W, im.H, s)
	out := s.dets[:0]
	for i := range comps {
		det, ok := c.decode(im, &comps[i])
		if ok {
			out = append(out, det)
		}
	}
	s.dets = out
	return dedupe(out)
}

// Release hands the detector's scratch back to the pool once its mission
// has ended; a later Detect takes a fresh one.
func (c *Classical) Release() {
	putScratch(c.scratch)
	c.scratch = nil
}

// decode attempts to read a marker code out of one candidate component.
func (c *Classical) decode(im *vision.Image, comp *component) (Detection, bool) {
	// Geometric gates: square-ish ring with plausible fill.
	if comp.width < c.MinSidePx {
		return Detection{}, false
	}
	if comp.squareness() < 0.62 {
		return Detection{}, false
	}
	if f := comp.fillRatio(); f < 0.18 || f > 0.92 {
		return Detection{}, false
	}

	samples, ok := sampleGrid(im, comp.cx, comp.cy, comp.width, comp.angle)
	if !ok {
		return Detection{}, false
	}

	// Per-candidate binarization threshold from the sample spread (the
	// printed marker is bimodal; scenery usually is not).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 0.18 {
		// Not enough contrast to call bits — fog or washout. This is the
		// pipeline's documented bad-weather failure.
		return Detection{}, false
	}
	thr := (lo + hi) / 2

	// Border check: the outer ring of the 6x6 grid must be dark.
	borderErrs := 0
	for gy := 0; gy < gridCells; gy++ {
		for gx := 0; gx < gridCells; gx++ {
			if gx != 0 && gy != 0 && gx != gridCells-1 && gy != gridCells-1 {
				continue
			}
			if samples[gy*gridCells+gx] >= thr {
				borderErrs++
			}
		}
	}
	if borderErrs > c.MaxBorderErrors {
		return Detection{}, false
	}

	// Decode the inner 4x4 code.
	var code uint16
	for by := 0; by < vision.GridBits; by++ {
		for bx := 0; bx < vision.GridBits; bx++ {
			if samples[(by+1)*gridCells+(bx+1)] >= thr {
				code |= 1 << uint(by*vision.GridBits+bx)
			}
		}
	}
	id, rot, dist := c.Dict.BestMatch(code)
	if dist > c.MaxHamming {
		return Detection{}, false
	}
	conf := 1 - 0.15*float64(dist) - 0.1*float64(borderErrs)
	// Orientation: the sampling grid was read at the min-area-rect angle;
	// the dictionary match's quarter-turn count rewinds it to the
	// marker's printed orientation (rot quarter turns of the observed
	// code equal -rot physical turns of the pad).
	yaw := geom.WrapAngle(comp.angle - float64(rot)*math.Pi/2)
	return Detection{
		ID:         id,
		Center:     geom.V2(comp.cx, comp.cy),
		SizePx:     comp.width,
		Confidence: conf,
		Yaw:        yaw,
		HasYaw:     true,
	}, true
}

// gridCells is the marker grid side including the border.
const gridCells = vision.GridBits + 2

// sampleGrid bilinearly samples the 6x6 cell centers of a candidate marker
// whose border-ring min-area rectangle is centered at (cx, cy) with side
// length side and orientation angle. ok is false when any sample would fall
// outside the image (marker clipped at the frame edge).
func sampleGrid(im *vision.Image, cx, cy, side, angle float64) ([gridCells * gridCells]float64, bool) {
	var out [gridCells * gridCells]float64
	cos, sin := math.Cos(angle), math.Sin(angle)
	cell := side / gridCells
	for gy := 0; gy < gridCells; gy++ {
		for gx := 0; gx < gridCells; gx++ {
			lx := (float64(gx)+0.5)*cell - side/2
			ly := (float64(gy)+0.5)*cell - side/2
			px := cx + lx*cos - ly*sin
			py := cy + lx*sin + ly*cos
			if px < 0 || py < 0 || px > float64(im.W-1) || py > float64(im.H-1) {
				return out, false
			}
			out[gy*gridCells+gx] = im.Bilinear(px, py)
		}
	}
	return out, true
}

// dedupe collapses detections whose centers fall within half a marker side
// of one another, keeping the most confident. It compacts dets in place
// (the kept prefix never overtakes the element being read) and returns
// that prefix.
func dedupe(dets []Detection) []Detection {
	if len(dets) <= 1 {
		return dets
	}
	kept := dets[:0]
	for _, d := range dets {
		merged := false
		for i := range kept {
			if kept[i].Center.Dist(d.Center) < (kept[i].SizePx+d.SizePx)/4 {
				if d.Confidence > kept[i].Confidence {
					kept[i] = d
				}
				merged = true
				break
			}
		}
		if !merged {
			kept = append(kept, d)
		}
	}
	// Best-first ordering.
	for i := 1; i < len(kept); i++ {
		for j := i; j > 0 && kept[j].Confidence > kept[j-1].Confidence; j-- {
			kept[j], kept[j-1] = kept[j-1], kept[j]
		}
	}
	return kept
}
