package detect

import (
	"math"

	"repro/internal/geom"
	"repro/internal/vision"
)

// Coarse-to-fine NCC verification (fast engine mode).
//
// The exact verify samples a full-resolution 20x20 patch for every
// (scale, angle) pose and correlates it against every template — most of
// that work is spent rejecting proposals that look nothing like a marker.
// The fast path correlates a decimated 10x10 patch first (one quarter the
// samples, float32 dot products) and only escalates poses and templates
// that clear the coarse gate to the full-resolution verify; quadrant votes
// are tallied only when they could still change the winner.
//
// This path is deliberately NOT bit-identical to the exact verify: the
// gates below can drop a template the exact search would have scored. The
// committed tolerances in campaign.VerifyFast bound the aggregate effect;
// TestLearnedFastAgreement bounds the per-frame effect.

// coarseN is the decimated patch side (patchN/2).
const coarseN = patchN / 2

// fastCoarseGate is the decimated-NCC floor: a template scoring below it
// at coarse resolution is skipped at full resolution, and a pose where
// every template falls below it is skipped entirely (no full-resolution
// sampling). True markers correlate far above it at any tested occlusion;
// clutter proposals sit near zero.
const fastCoarseGate = 0.30

// fastVoteGate is the full-score floor for tallying quadrant votes: below
// it a candidate cannot plausibly carry MinQuadVotes intact quadrants, so
// the four quadrant correlations are skipped. (Votes are also skipped when
// even four of them could not lift the candidate above the running best —
// that gate is exact, not approximate.)
const fastVoteGate = 0.20

// fastTemplate is the float32 bank of one learnedTemplate: the decimated
// prefilter patch plus full-resolution and quadrant copies.
type fastTemplate struct {
	coarse [coarseN * coarseN]float32
	full   [patchN * patchN]float32
	quad   [4][quadN * quadN]float32
}

// fastScratch is the per-detector pose workspace of the fast verify.
type fastScratch struct {
	coarse  [coarseN * coarseN]float32
	patch   [patchN * patchN]float64
	patch32 [patchN * patchN]float32
	quads   [4][quadN * quadN]float32
}

// EnableFast switches Detect to the coarse-to-fine verify. The float32
// template bank is built once per process per dictionary, on the first
// EnableFast of any detector using it, and shared read-only; a process
// that stays exact never builds it. Idempotent.
func (l *Learned) EnableFast() {
	l.Fast = true
	if len(l.fastTpl) == len(l.templates) {
		return
	}
	l.fastTpl = l.bank.fastBank()
	l.fastCs = make([]float32, len(l.templates))
}

// buildFastTemplate derives the float32 banks from one exact template: the
// full patch and quadrants are value-preserving copies; the coarse patch is
// the 2x2 block mean of the normalized patch, re-normalized at 10x10.
func buildFastTemplate(ft *fastTemplate, t *learnedTemplate) {
	for i, v := range t.vals {
		ft.full[i] = float32(v)
	}
	for q := 0; q < 4; q++ {
		for i, v := range t.quad[q] {
			ft.quad[q][i] = float32(v)
		}
	}
	var coarse [coarseN * coarseN]float64
	for y := 0; y < coarseN; y++ {
		for x := 0; x < coarseN; x++ {
			s := t.vals[(2*y)*patchN+2*x] + t.vals[(2*y)*patchN+2*x+1] +
				t.vals[(2*y+1)*patchN+2*x] + t.vals[(2*y+1)*patchN+2*x+1]
			coarse[y*coarseN+x] = s * 0.25
		}
	}
	normalizePatch(coarse[:])
	for i, v := range coarse {
		ft.coarse[i] = float32(v)
	}
}

// verifyFast is the coarse-to-fine counterpart of verify: same pose loop,
// same ranking and acceptance rules, with the decimated prefilter deciding
// which poses and templates reach full resolution.
func (l *Learned) verifyFast(im *vision.Image, comp *component) (Detection, bool) {
	scales := [3]float64{0.85, 1.0, 1.2}
	angles := [3]float64{comp.angle - 0.10, comp.angle, comp.angle + 0.10}

	bestScore := -1.0
	bestID := -1
	bestSide := comp.width
	bestVotes := 0

	scr := &l.fastScr
	for _, sc := range scales {
		side := comp.width * sc
		if side < l.MinSidePx {
			continue
		}
		for _, ang := range angles {
			// Prefilter: decimated sampling (a quarter of the bilinear
			// taps), one 100-wide float32 dot per template.
			if !sampleCoarse(im, comp.cx, comp.cy, side, ang, &scr.coarse) {
				continue
			}
			normalize32(scr.coarse[:])
			anyPass := false
			for ti := range l.fastTpl {
				cs := dot32(scr.coarse[:], l.fastTpl[ti].coarse[:])
				l.fastCs[ti] = cs
				if cs >= fastCoarseGate {
					anyPass = true
				}
			}
			if !anyPass {
				continue // no template is plausible at this pose
			}

			// Full resolution, surviving templates only.
			if !samplePatch(im, comp.cx, comp.cy, side, ang, &scr.patch) {
				continue
			}
			normalizePatch(scr.patch[:])
			for i, v := range scr.patch {
				scr.patch32[i] = float32(v)
			}
			quadsBuilt := false
			for ti := range l.fastTpl {
				if l.fastCs[ti] < fastCoarseGate {
					continue
				}
				t := &l.fastTpl[ti]
				score := float64(dot32(scr.patch32[:], t.full[:]))
				votes := 0
				// Tally votes only when they can matter: four votes add at
				// most 0.4 rank, and a score under fastVoteGate cannot carry
				// an occlusion acceptance.
				if score+0.4 > bestScore && score >= fastVoteGate {
					if !quadsBuilt {
						buildQuads32(scr)
						quadsBuilt = true
					}
					for q := 0; q < 4; q++ {
						if float64(dot32(scr.quads[q][:], t.quad[q][:])) >= l.TauQuad {
							votes++
						}
					}
				}
				rank := score + 0.1*float64(votes)
				if rank > bestScore {
					bestScore = rank
					bestID = l.templates[ti].id
					bestSide = side
					bestVotes = votes
				}
			}
		}
	}
	if bestID < 0 {
		return Detection{}, false
	}
	full := bestScore - 0.1*float64(bestVotes)
	accepted := full >= l.TauFull || bestVotes >= l.MinQuadVotes
	if !accepted {
		return Detection{}, false
	}
	conf := full
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	if full < l.TauFull {
		conf = 0.5 + 0.1*float64(bestVotes-l.MinQuadVotes)
	}
	return Detection{
		ID:         bestID,
		Center:     geom.V2(comp.cx, comp.cy),
		SizePx:     bestSide,
		Confidence: conf,
	}, true
}

// buildQuads32 extracts and normalizes the four quadrants of the current
// full-resolution patch, lazily — poses whose surviving templates never
// need votes skip the four normalizations.
func buildQuads32(scr *fastScratch) {
	var buf [quadN * quadN]float64
	for q := 0; q < 4; q++ {
		ox := (q % 2) * quadN
		oy := (q / 2) * quadN
		for y := 0; y < quadN; y++ {
			for x := 0; x < quadN; x++ {
				buf[y*quadN+x] = scr.patch[(oy+y)*patchN+(ox+x)]
			}
		}
		normalizePatch(buf[:])
		for i, v := range buf {
			scr.quads[q][i] = float32(v)
		}
	}
}

// sampleCoarse bilinearly samples the decimated coarseN x coarseN patch —
// same center, side, rotation and outside-tolerance policy as samplePatch,
// at one quarter the taps.
func sampleCoarse(im *vision.Image, cx, cy, side, angle float64, out *[coarseN * coarseN]float32) bool {
	cos, sin := math.Cos(angle), math.Sin(angle)
	cell := side / coarseN
	outside := 0
	for gy := 0; gy < coarseN; gy++ {
		for gx := 0; gx < coarseN; gx++ {
			lx := (float64(gx)+0.5)*cell - side/2
			ly := (float64(gy)+0.5)*cell - side/2
			px := cx + lx*cos - ly*sin
			py := cy + lx*sin + ly*cos
			if px < 0 || py < 0 || px > float64(im.W-1) || py > float64(im.H-1) {
				outside++
				out[gy*coarseN+gx] = 0.5
				continue
			}
			out[gy*coarseN+gx] = float32(im.Bilinear(px, py))
		}
	}
	return outside <= coarseN*coarseN/4
}

// normalize32 is normalizePatch for a float32 buffer (float64 accumulation,
// float32 storage).
func normalize32(v []float32) {
	var mean float64
	for _, x := range v {
		mean += float64(x)
	}
	mean /= float64(len(v))
	var ss float64
	for i := range v {
		d := float64(v[i]) - mean
		v[i] = float32(d)
		ss += d * d
	}
	n := math.Sqrt(ss)
	if n < 1e-9 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
}

// dot32 is a 4-wide manually-unrolled float32 dot product. Both operand
// lengths here (400, 100) are multiples of four; the tail loop keeps it
// correct for any length.
func dot32(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for i := n; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}
