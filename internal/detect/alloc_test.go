package detect

import (
	"testing"

	"repro/internal/vision"
)

// TestDetectAllocationFree guards the per-frame arenas: once a detector's
// scratch has grown to the frame, detecting a marker — components, pixel
// lists, verification and the deduplicated result — allocates nothing.
func TestDetectAllocationFree(t *testing.T) {
	dict := vision.DefaultDictionary()
	im, id, _ := renderTrial(t, 3, 10, vision.Conditions{})
	fast := NewLearnedV3(dict)
	fast.EnableFast()
	for _, tc := range []struct {
		name string
		d    Detector
	}{
		{"classical", NewClassical(dict)},
		{"learned", NewLearnedV2(dict)},
		{"learned-fast", fast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !hasID(tc.d.Detect(im), id) {
				t.Fatalf("warm-up frame: marker %d not detected", id)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if !hasID(tc.d.Detect(im), id) {
					t.Fatalf("marker %d lost", id)
				}
			})
			if allocs != 0 {
				t.Errorf("warmed Detect: %v allocs per frame, want 0", allocs)
			}
		})
	}
}

// TestDetectorReleaseRecycles pins the release seam: a released detector's
// scratch goes back to the pool, and a detector running on recycled
// scratch sees exactly what a fresh one sees.
func TestDetectorReleaseRecycles(t *testing.T) {
	dict := vision.DefaultDictionary()
	fresh := NewLearnedV3(dict)
	im, _, _ := renderTrial(t, 5, 12, vision.Conditions{})
	want := append([]Detection(nil), fresh.Detect(im)...)

	used := NewLearnedV3(dict)
	other, _, _ := renderTrial(t, 6, 8, vision.Conditions{})
	used.Detect(other)
	used.Release()
	used.Release() // idempotent
	if used.scratch != nil {
		t.Fatal("Release kept the scratch")
	}
	for i := 0; i < 2; i++ { // the second detector may draw the released scratch
		d := NewLearnedV3(dict)
		got := d.Detect(im)
		if len(got) != len(want) {
			t.Fatalf("recycled detector found %d markers, fresh %d", len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("detection %d: recycled %+v, fresh %+v", j, got[j], want[j])
			}
		}
		d.Release()
	}
}
