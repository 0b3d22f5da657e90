// Package detect implements the two marker-detection generations the paper
// compares (§III-A, Table II):
//
//   - Classical: an OpenCV-ArUco-style fixed pipeline — adaptive threshold,
//     connected components, square fitting, grid bit sampling and dictionary
//     matching. It inherits that pipeline's documented weaknesses: high
//     altitude (undersampled bits), partial occlusion (broken border), and
//     challenging lighting (threshold collapse under fog/glare).
//
//   - Learned: a TPH-YOLO-equivalent detector. Training a transformer-headed
//     YOLO is out of scope for a stdlib-Go reproduction, so the learned model
//     is simulated by a multi-scale, rotation-searched normalized-cross-
//     correlation ensemble with per-patch photometric normalization and
//     quadrant voting. Those mechanisms reproduce the properties the paper
//     attributes to the DNN: invariance to brightness/contrast shifts,
//     tolerance of partial occlusion, and small-object sensitivity.
//
// Both detectors consume the same synthetic frames and are scored by the
// scenario harness to regenerate Table II.
package detect

import (
	"repro/internal/geom"
	"repro/internal/vision"
)

// Detection is one marker sighting in an image.
type Detection struct {
	ID         int       // dictionary ID of the matched marker
	Center     geom.Vec2 // pixel coordinates of the marker center
	SizePx     float64   // apparent side length of the marker grid, pixels
	Confidence float64   // detector-specific confidence in [0,1]

	// Yaw is the marker's in-plane orientation in radians (image frame),
	// valid only when HasYaw is set. The classical grid decoder recovers
	// it from the min-area-rect angle plus the decoded quarter-turn; the
	// learned detector does not estimate orientation — the limitation the
	// paper notes for its TPH-YOLO models (§V-A).
	Yaw    float64
	HasYaw bool
}

// Detector is the interface both generations implement.
type Detector interface {
	// Name identifies the implementation in logs and result tables.
	Name() string
	// Detect returns all marker sightings in the frame, best first. The
	// slice may be owned by the detector and is valid until its next
	// Detect call; a caller that keeps detections longer copies them.
	Detect(im *vision.Image) []Detection
}

// minimal sanity bounds shared by both detectors.
const (
	minComponentArea = 18   // px², smallest dark blob worth considering
	maxComponentFrac = 0.55 // fraction of frame area; larger blobs are scenery
)
