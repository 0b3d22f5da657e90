package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/planning"
	"repro/internal/scenario"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

// The traced pass measures per-module cost from outside the program: it
// assembles every mission's core.System by hand from the generation's own
// modules wrapped in timing and counting shims, then flies it through
// scenario.Run. Nothing inside the engine changes, and the pass proves it:
// every traced run's Result.Digest() must equal the untraced run's.

// Layer counters of one mission. Fast mode calls the detector and the
// planner from scenario stage goroutines while the control loop inserts
// into and queries the map, so a probe's counters are atomic.
const (
	detCalls = iota
	detNs
	detHits // frames with at least one detection
	insCalls
	insNs
	insPoints
	blocked // every Map.Blocked query, the planner's included
	planCalls
	planNs
	planFails
	planBlocked // Map.Blocked queries made inside Plan calls
	nCounters
)

type probe [nCounters]atomic.Int64

type timedDetector struct {
	inner detect.Detector
	p     *probe
}

func (d timedDetector) Name() string { return d.inner.Name() }

func (d timedDetector) Detect(im *vision.Image) []detect.Detection {
	t0 := time.Now()
	out := d.inner.Detect(im)
	d.p[detNs].Add(int64(time.Since(t0)))
	d.p[detCalls].Add(1)
	if len(out) > 0 {
		d.p[detHits].Add(1)
	}
	return out
}

// timedMap times insertions and counts Blocked queries. Blocked is
// counted, not timed: it runs tens of millions of times per sweep and two
// clock reads each would dominate what they measure.
type timedMap struct {
	mapping.Map
	p *probe
}

func (m timedMap) Blocked(q geom.Vec3) bool {
	m.p[blocked].Add(1)
	return m.Map.Blocked(q)
}

func (m timedMap) InsertRay(origin, end geom.Vec3, hit bool) {
	t0 := time.Now()
	m.Map.InsertRay(origin, end, hit)
	m.p[insNs].Add(int64(time.Since(t0)))
	m.p[insCalls].Add(1)
	m.p[insPoints].Add(1)
}

func (m timedMap) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	t0 := time.Now()
	m.Map.InsertCloud(origin, ends, hits)
	m.p[insNs].Add(int64(time.Since(t0)))
	m.p[insCalls].Add(1)
	m.p[insPoints].Add(int64(len(ends)))
}

type timedPlanner struct {
	inner planning.Planner
	p     *probe
}

func (pl timedPlanner) Name() string { return pl.inner.Name() }

func (pl timedPlanner) Plan(start, goal geom.Vec3, m mapping.Map) ([]geom.Vec3, error) {
	view := &planView{Map: m}
	t0 := time.Now()
	path, err := pl.inner.Plan(start, goal, view)
	pl.p[planNs].Add(int64(time.Since(t0)))
	pl.p[planCalls].Add(1)
	pl.p[planBlocked].Add(view.blocked)
	if err != nil {
		pl.p[planFails].Add(1)
	}
	return path, err
}

// planView counts the Blocked queries of one Plan call; a planner runs on
// one goroutine, so the count needs no synchronization.
type planView struct {
	mapping.Map
	blocked int64
}

func (v *planView) Blocked(q geom.Vec3) bool {
	v.blocked++
	return v.Map.Blocked(q)
}

// plannerFor builds the generation's planner exactly as core.NewV1/V2/V3
// do; the assembled System does not expose its own.
func plannerFor(gen core.Generation, seed int64) (planning.Planner, error) {
	switch gen {
	case core.V1:
		return planning.StraightLine{}, nil
	case core.V2:
		return planning.NewAStar(planning.DefaultAStarConfig()), nil
	case core.V3:
		return planning.NewRRTStar(planning.DefaultRRTStarConfig(), seed), nil
	}
	return nil, fmt.Errorf("no planner for generation %v", gen)
}

// layers sums the probes of one generation's traced missions.
type layers struct {
	c                 [nCounters]int64
	runs, mapBytesEnd int64
}

// traceTotals sums every traced pass of one invocation.
type traceTotals struct {
	gens map[core.Generation]*layers
	// busy is the summed mission wall; otherNs the part of it not spent in
	// a wrapped layer on the control-loop goroutine.
	busy, otherNs  time.Duration
	runs, ticks    int
	replans, fails int
	// series sums the scenario stage counters' growth over the passes.
	series map[string]float64
}

func newTraceTotals() *traceTotals {
	return &traceTotals{gens: map[core.Generation]*layers{}, series: map[string]float64{}}
}

// flyTraced runs one cell with a hand-assembled, wrapped system.
func flyTraced(ru campaign.Run, timing scenario.Timing) (scenario.Result, *probe, int64, time.Duration, error) {
	t0 := time.Now()
	sc, release, err := worldgen.Shared.Acquire(ru.MapIdx, ru.ScenarioIdx)
	if err != nil {
		return scenario.Result{}, nil, 0, 0, err
	}
	defer release()
	sys0, err := scenario.BuildSystem(ru.Gen, sc, ru.Seed)
	if err != nil {
		return scenario.Result{}, nil, 0, 0, err
	}
	planner, err := plannerFor(ru.Gen, ru.Seed)
	if err != nil {
		return scenario.Result{}, nil, 0, 0, err
	}
	if timing.Fast {
		// System.EnableFastKernels finds these by concrete type, which the
		// wrappers hide; switch the inner modules before wrapping.
		if l, ok := sys0.Detector().(*detect.Learned); ok {
			l.EnableFast()
		}
		if r, ok := planner.(*planning.RRTStar); ok {
			r.Fast = true
		}
	}
	p := &probe{}
	deps := core.Dependencies{
		Detector: timedDetector{inner: sys0.Detector(), p: p},
		Map:      timedMap{Map: sys0.Map(), p: p},
		Planner:  timedPlanner{inner: planner, p: p},
	}
	if lg, ok := sys0.Map().(*mapping.LocalGrid); ok {
		deps.LocalMap = lg // re-centered by concrete type, as NewV2 wires it
	}
	sys, err := core.NewSystem(sys0.Config(), deps)
	if err != nil {
		return scenario.Result{}, nil, 0, 0, err
	}
	cfg := scenario.DefaultRunConfig(ru.Seed)
	cfg.Timing = timing
	r := scenario.Run(sc, sys, cfg)
	wall := time.Since(t0)
	return r, p, int64(sys0.Map().MemoryBytes()), wall, nil
}

// runTraced flies spec with wrapped systems on workers goroutines, the
// same worker count the untraced passes use, adds what it measured to tot,
// and checks every run's digest against ref (the untraced results in
// canonical order). A fleet workload passes its per-run member tick
// counts in droneTicks. It returns how many runs changed digest and a
// description of the first.
func runTraced(ctx context.Context, spec campaign.Spec, workers int, ref []scenario.Result,
	droneTicks []int, tot *traceTotals) (mismatches int, first string, err error) {
	runs, err := spec.Runs()
	if err != nil {
		return 0, "", err
	}
	if len(ref) != len(runs) {
		return 0, "", fmt.Errorf("traced pass: %d reference results for %d runs", len(ref), len(runs))
	}
	// Stage work lands on the control loop only when its stage is off;
	// fleets always fly inline.
	fleet := spec.Timing.Fleet.Active()
	detectInline := spec.Timing.Pipeline != scenario.PipelineOn || fleet
	planInline := spec.Timing.PlanLatencyTicks < 1 || fleet

	series0 := scrapeSeries()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(runs) || ctx.Err() != nil {
					return
				}
				ru := runs[i]
				r, p, mapBytes, wall, err := flyTraced(ru, spec.Timing)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				got, want := r.Digest(), ref[i].Digest()
				ticks := ticksOf(r, spec.Timing)
				if droneTicks != nil {
					ticks = droneTicks[i]
				}
				inLoop := p[insNs].Load()
				if detectInline {
					inLoop += p[detNs].Load()
				}
				if planInline {
					inLoop += p[planNs].Load()
				}

				mu.Lock()
				l := tot.gens[ru.Gen]
				if l == nil {
					l = &layers{}
					tot.gens[ru.Gen] = l
				}
				for k := range p {
					l.c[k] += p[k].Load()
				}
				l.runs++
				l.mapBytesEnd += mapBytes
				tot.busy += wall
				tot.otherNs += wall - time.Duration(inLoop)
				tot.runs++
				tot.ticks += ticks
				tot.replans += r.Stats.Replans
				tot.fails += r.Stats.Failsafes
				if got != want {
					mismatches++
					if first == "" {
						first = fmt.Sprintf("run %d (%v map %d scenario %d rep %d): traced digest %.12s, untraced %.12s",
							i, ru.Gen, ru.MapIdx, ru.ScenarioIdx, ru.Rep, got, want)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, "", firstErr
	}
	if err := ctx.Err(); err != nil {
		return 0, "", err
	}
	for k, v := range scrapeSeries() {
		tot.series[k] += v - series0[k]
	}
	return mismatches, first, nil
}
