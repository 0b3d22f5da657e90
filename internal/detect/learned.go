package detect

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/vision"
)

// patchN is the side length of the normalized patch the learned detector
// correlates against its template bank.
const patchN = 20

// quadN is the quadrant side (patchN/2) used by the occlusion-tolerant
// quadrant vote.
const quadN = patchN / 2

// Learned simulates the TPH-YOLO detector of MLS-V2/V3 (paper §III-A).
//
// Mechanism: candidate regions are proposed permissively from dark
// components, then verified by multi-scale, multi-angle normalized cross-
// correlation against a rendered template bank. Per-patch photometric
// normalization supplies the brightness/contrast invariance the paper's
// augmented training set provides; per-quadrant voting supplies the
// partial-occlusion tolerance; the multi-scale search supplies small-object
// sensitivity beyond the classical grid decoder's reach.
type Learned struct {
	Dict *vision.Dictionary

	// TauFull is the full-patch NCC acceptance threshold.
	TauFull float64
	// TauQuad and MinQuadVotes govern the occlusion fallback: a candidate
	// whose full-patch score fails still passes if at least MinQuadVotes
	// quadrants individually correlate above TauQuad.
	TauQuad      float64
	MinQuadVotes int
	// MinSidePx is the smallest proposal worth verifying.
	MinSidePx float64
	// ProposalOffset is the (permissive) adaptive-threshold margin for
	// proposal generation.
	ProposalOffset float64

	// Fast selects the coarse-to-fine verify (see learned_fast.go); set it
	// through EnableFast, which also builds the float32 template banks. Off
	// (the zero value), the detector runs the exact verify untouched.
	Fast bool

	// bank is the dictionary's shared, immutable template set; templates
	// is its exact bank.
	bank      *templateBank
	templates []learnedTemplate
	scratch   *detScratch // taken from the pool on first use, nil after Release

	// Fast-path state, nil/zero until EnableFast.
	fastTpl []fastTemplate
	fastCs  []float32
	fastScr fastScratch
}

// learnedTemplate is one normalized template with per-quadrant
// normalizations, for one (marker, quarter-rotation) pair.
type learnedTemplate struct {
	id   int
	vals [patchN * patchN]float64 // zero-mean, unit-norm over the patch
	quad [4][quadN * quadN]float64
}

// NewLearnedV2 returns the learned detector with the thresholds the
// second-generation system shipped with.
func NewLearnedV2(dict *vision.Dictionary) *Learned {
	return newLearned(dict, 0.62, 0.66, 3)
}

// NewLearnedV3 returns the third-generation calibration: the same model
// with acceptance thresholds re-tuned on the enlarged simulation dataset,
// which is what lowers the false-negative rate from 2.67% to 2.00% in
// Table II.
func NewLearnedV3(dict *vision.Dictionary) *Learned {
	return newLearned(dict, 0.56, 0.62, 3)
}

func newLearned(dict *vision.Dictionary, tauFull, tauQuad float64, votes int) *Learned {
	l := &Learned{
		Dict:           dict,
		TauFull:        tauFull,
		TauQuad:        tauQuad,
		MinQuadVotes:   votes,
		MinSidePx:      9,
		ProposalOffset: 0.05,
	}
	l.bank = bankFor(dict)
	l.templates = l.bank.exact
	return l
}

// Name implements Detector.
func (l *Learned) Name() string { return "tph-yolo-equivalent" }

// templateBank is the immutable template set of one dictionary: the exact
// bank every learned detector verifies against and, built on first use,
// the fast mode's float32 bank. Banks are built once per process per
// dictionary and shared read-only by every detector.
type templateBank struct {
	exact    []learnedTemplate
	fastOnce sync.Once
	fast     []fastTemplate
}

// banks memoizes templateBanks by dictionary content, so equal
// dictionaries share one bank whichever *Dictionary they arrive in.
var banks sync.Map // string -> *templateBank

// bankFor returns the shared bank of dict's markers.
func bankFor(dict *vision.Dictionary) *templateBank {
	key := make([]byte, 0, 4*len(dict.Markers))
	for _, m := range dict.Markers {
		key = binary.AppendVarint(key, int64(m.ID))
		key = binary.LittleEndian.AppendUint16(key, m.Code())
	}
	if b, ok := banks.Load(string(key)); ok {
		return b.(*templateBank)
	}
	b, _ := banks.LoadOrStore(string(key), &templateBank{exact: buildTemplates(dict)})
	return b.(*templateBank)
}

// fastBank returns the float32 bank, building it on first call.
func (b *templateBank) fastBank() []fastTemplate {
	b.fastOnce.Do(func() {
		b.fast = make([]fastTemplate, len(b.exact))
		for i := range b.exact {
			buildFastTemplate(&b.fast[i], &b.exact[i])
		}
	})
	return b.fast
}

// buildTemplates renders the marker grid (border + code, no quiet zone) at
// patch resolution for all four quarter rotations of every dictionary entry
// and pre-normalizes them.
func buildTemplates(dict *vision.Dictionary) []learnedTemplate {
	var templates []learnedTemplate
	for _, m := range dict.Markers {
		base := renderGridPatch(m)
		for rot := 0; rot < 4; rot++ {
			var t learnedTemplate
			t.id = m.ID
			t.vals = rotatePatch(base, rot)
			normalizePatch(t.vals[:])
			for q := 0; q < 4; q++ {
				extractQuadrant(&t, q)
			}
			templates = append(templates, t)
		}
	}
	return templates
}

// renderGridPatch samples the marker's grid region (border included, quiet
// zone excluded) into a patchN x patchN array.
func renderGridPatch(m vision.Marker) [patchN * patchN]float64 {
	var out [patchN * patchN]float64
	const quiet = 0.10
	for y := 0; y < patchN; y++ {
		for x := 0; x < patchN; x++ {
			u := quiet + (float64(x)+0.5)/patchN*(1-2*quiet)
			v := quiet + (float64(y)+0.5)/patchN*(1-2*quiet)
			out[y*patchN+x] = m.PatternAt(u, v)
		}
	}
	return out
}

// rotatePatch rotates the patch by rot quarter turns clockwise.
func rotatePatch(p [patchN * patchN]float64, rot int) [patchN * patchN]float64 {
	out := p
	for r := 0; r < rot%4; r++ {
		var next [patchN * patchN]float64
		for y := 0; y < patchN; y++ {
			for x := 0; x < patchN; x++ {
				// (x, y) -> (patchN-1-y, x)
				next[x*patchN+(patchN-1-y)] = out[y*patchN+x]
			}
		}
		out = next
	}
	return out
}

// normalizePatch makes the values zero-mean and unit-norm in place; flat
// patches are left zeroed (they correlate with nothing).
func normalizePatch(v []float64) {
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	var ss float64
	for i := range v {
		v[i] -= mean
		ss += v[i] * v[i]
	}
	n := math.Sqrt(ss)
	if n < 1e-9 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// extractQuadrant copies quadrant q of the template and normalizes it
// independently so occluded-region statistics do not poison intact ones.
func extractQuadrant(t *learnedTemplate, q int) {
	// Re-render from the unnormalized values is unnecessary: quadrant
	// normalization is affine-invariant, so normalizing the already
	// normalized values gives the same result.
	ox := (q % 2) * quadN
	oy := (q / 2) * quadN
	var buf [quadN * quadN]float64
	for y := 0; y < quadN; y++ {
		for x := 0; x < quadN; x++ {
			buf[y*quadN+x] = t.vals[(oy+y)*patchN+(ox+x)]
		}
	}
	normalizePatch(buf[:])
	t.quad[q] = buf
}

// Detect implements Detector. The result is valid until the next call.
func (l *Learned) Detect(im *vision.Image) []Detection {
	if im.W == 0 || im.H == 0 {
		return nil
	}
	if l.scratch == nil {
		l.scratch = scratchPool.Get().(*detScratch)
	}
	s := l.scratch
	mask := adaptiveThreshold(im, 9, l.ProposalOffset, s)
	comps := findComponents(mask, im.W, im.H, s)
	out := s.dets[:0]
	for i := range comps {
		comp := &comps[i]
		if comp.width < l.MinSidePx || comp.squareness() < 0.35 {
			continue
		}
		var det Detection
		var ok bool
		if l.Fast {
			det, ok = l.verifyFast(im, comp)
		} else {
			det, ok = l.verify(im, comp)
		}
		if ok {
			out = append(out, det)
		}
	}
	s.dets = out
	return dedupe(out)
}

// Release hands the detector's scratch back to the pool once its mission
// has ended; a later Detect takes a fresh one.
func (l *Learned) Release() {
	putScratch(l.scratch)
	l.scratch = nil
}

// verify runs the multi-scale, multi-angle NCC search on one proposal.
func (l *Learned) verify(im *vision.Image, comp *component) (Detection, bool) {
	scales := [3]float64{0.85, 1.0, 1.2}
	angles := [3]float64{comp.angle - 0.10, comp.angle, comp.angle + 0.10}

	bestScore := -1.0
	bestID := -1
	bestSide := comp.width
	bestVotes := 0

	var patch [patchN * patchN]float64
	var quads [4][quadN * quadN]float64
	for _, sc := range scales {
		side := comp.width * sc
		if side < l.MinSidePx {
			continue
		}
		for _, ang := range angles {
			if !samplePatch(im, comp.cx, comp.cy, side, ang, &patch) {
				continue
			}
			normalizePatch(patch[:])
			for q := 0; q < 4; q++ {
				ox := (q % 2) * quadN
				oy := (q / 2) * quadN
				for y := 0; y < quadN; y++ {
					for x := 0; x < quadN; x++ {
						quads[q][y*quadN+x] = patch[(oy+y)*patchN+(ox+x)]
					}
				}
				normalizePatch(quads[q][:])
			}
			for ti := range l.templates {
				t := &l.templates[ti]
				score := dot(patch[:], t.vals[:])
				votes := 0
				for q := 0; q < 4; q++ {
					if dot(quads[q][:], t.quad[q][:]) >= l.TauQuad {
						votes++
					}
				}
				// Rank candidates by a blend so a high-vote occluded hit
				// can beat a mediocre full-patch hit.
				rank := score + 0.1*float64(votes)
				if rank > bestScore {
					bestScore = rank
					bestID = t.id
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
		// Occlusion-vote acceptance carries lower confidence.
		conf = 0.5 + 0.1*float64(bestVotes-l.MinQuadVotes)
	}
	return Detection{
		ID:         bestID,
		Center:     geom.V2(comp.cx, comp.cy),
		SizePx:     bestSide,
		Confidence: conf,
	}, true
}

// samplePatch bilinearly samples a rotated square region of the image into
// a patchN x patchN buffer. Samples that fall outside the frame are
// tolerated up to 25% (markers at the frame edge), substituted with the
// patch mean afterwards via zeroing pre-normalization.
func samplePatch(im *vision.Image, cx, cy, side, angle float64, out *[patchN * patchN]float64) bool {
	cos, sin := math.Cos(angle), math.Sin(angle)
	cell := side / patchN
	outside := 0
	for gy := 0; gy < patchN; gy++ {
		for gx := 0; gx < patchN; gx++ {
			lx := (float64(gx)+0.5)*cell - side/2
			ly := (float64(gy)+0.5)*cell - side/2
			px := cx + lx*cos - ly*sin
			py := cy + lx*sin + ly*cos
			if px < 0 || py < 0 || px > float64(im.W-1) || py > float64(im.H-1) {
				outside++
				out[gy*patchN+gx] = 0.5
				continue
			}
			out[gy*patchN+gx] = im.Bilinear(px, py)
		}
	}
	return outside <= patchN*patchN/4
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
