package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	workers  int

	// Self-test knobs: fly one-cell grids, and replace the expected
	// digest the passes are checked against.
	shrink bool
	expect *digests
}

// setups is how many times the set-up phase runs; setup_s is the median.
// Set-up takes milliseconds and its first rounds pay for heap growth, so
// many repetitions keep the median steady.
const setups = 25

// bench is one invocation's state.
type bench struct {
	o   options
	w   *workload
	out io.Writer

	// golden is what every measured pass must digest to (a committed
	// golden file, or the coordinator workload's direct campaign); first
	// is the first measured pass, which every later one must equal.
	golden, first *digests
	// ref is the coordinator workload's direct campaign.Execute pass.
	ref *pass
	// exactSuccess is the exact engine's per-generation success rate.
	exactSuccess map[core.Generation]float64
	// droneTicks, on fleet workloads, is every run's simulated ticks
	// summed over the fleet's members, by run index.
	droneTicks []int

	setupS, genMs []float64
	nCells        int

	attempted, failed int
	problems          []string
}

func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if o.shrink {
		w.shrink()
	}
	b := &bench{o: o, w: w, out: out}
	prov, _ := json.Marshal(newProvenance(o.root, o.workers, w.coord)) // strings and ints always encode
	logf(out, "provenance %s", prov)
	logf(out, "workload %s seed %d runs/pass %d trace %v", w.name, o.seed, w.spec.Total(), o.trace)

	if err := b.setup(); err != nil {
		return nil, err
	}
	if err := b.reference(ctx); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	if o.trace {
		err = b.measureTraced(ctx, res)
	} else {
		err = b.measure(ctx, res)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range b.problems {
		logf(out, "ORACLE FAILURE: %s", p)
	}
	logf(out, "failed_runs_frac %g (%d of %d runs attempted)", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && len(b.problems) == 0
	return res, nil
}

// setup times what a user pays before the first mission flies: resolving
// the grid, generating every distinct world, loading the oracle, and (for
// the coordinator workload) standing a coordinator up on loopback. It
// runs several times; the Shared world cache is warmed once afterwards so
// the measured passes start from filled caches.
func (b *bench) setup() error {
	for i := 0; i < setups; i++ {
		// Start every round from a collected heap, so whether a GC cycle
		// lands inside the round does not vary from round to round.
		runtime.GC()
		t0 := time.Now()
		cs, err := cells(b.w.spec)
		if err != nil {
			return err
		}
		b.nCells = len(cs)
		switch {
		case b.o.expect != nil:
			d := *b.o.expect
			b.golden = &d
		case b.w.golden != "":
			d, err := readGolden(b.o.root, b.w.golden)
			if err != nil {
				return err
			}
			b.golden = &d
		}
		g0 := time.Now()
		var first *worldgen.Scenario
		for _, c := range cs {
			sc, err := worldgen.Generate(c[0], c[1])
			if err != nil {
				return err
			}
			if first == nil {
				first = sc
			}
		}
		b.genMs = append(b.genMs, float64(time.Since(g0))/1e6)
		// One system per generation: detector templates, map and planner
		// construction are per-mission costs a change could hoist here.
		for _, gen := range b.w.spec.Generations {
			if _, err := scenario.BuildSystem(gen, first, 1); err != nil {
				return err
			}
		}
		if b.w.coord {
			c, err := coord.NewCoordinator(coord.Config{Spec: b.w.spec, Profile: missionProfile})
			if err != nil {
				return err
			}
			httptest.NewServer(c.Handler()).Close()
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
	}
	cs, _ := cells(b.w.spec)
	for _, c := range cs {
		_, release, err := worldgen.Shared.Acquire(c[0], c[1])
		if err != nil {
			return err
		}
		release()
	}
	logf(b.out, "setup %d× median %.4f s %.4f (worldgen %.2f ms over %d cells)", setups, median(b.setupS), b.setupS, median(b.genMs), b.nCells)
	return nil
}

// reference flies the unmeasured passes: a warm-up over each
// generation's first cell, so the first measured pass does not pay for
// heap growth and cold code, and the references some oracles compare
// against.
func (b *bench) reference(ctx context.Context) error {
	if b.w.spec.Timing.Fleet.Active() {
		// A fleet's Result carries its lead drone only; count every
		// member's ticks once, from the flight recorder's terminal
		// events, and let this pass be the warm-up. Later passes must
		// digest like it, so the recorder is checked to be transparent.
		p, ticks, err := droneTickPass(ctx, b.w.spec, b.o.workers)
		if err != nil {
			return err
		}
		b.droneTicks = ticks
		b.first = &p.digest
	} else {
		warm := b.w.spec
		warm.Maps, warm.Scenarios, warm.Repeats = warm.Maps[:1], warm.Scenarios[:1], 1
		if _, err := executePass(ctx, warm, b.o.workers); err != nil {
			return err
		}
	}
	if b.w.coord {
		p, err := executePass(ctx, b.w.spec, b.o.workers)
		if err != nil {
			return err
		}
		b.ref = p
		if b.golden == nil {
			b.golden = &digests{aggregates: p.digest.aggregates}
		}
		logf(b.out, "reference campaign.Execute: wall %.3f s digest %.16s", p.wall.Seconds(), p.digest.aggregates)
	}
	if b.w.exactRef != nil {
		p, err := executePass(ctx, *b.w.exactRef, b.o.workers)
		if err != nil {
			return err
		}
		b.exactSuccess = map[core.Generation]float64{}
		for gen, n := range p.drones {
			b.exactSuccess[gen] = 100 * float64(p.success[gen]) / float64(n)
		}
		logf(b.out, "reference exact engine: wall %.3f s success %v", p.wall.Seconds(), fmtSuccess(b.exactSuccess))
	}
	return nil
}

// untracedPass flies one measured pass the workload's way.
func (b *bench) untracedPass(ctx context.Context, transport *timingTransport) (*pass, error) {
	c0 := cpuTime()
	var p *pass
	var err error
	if b.w.coord {
		p, err = coordPass(ctx, b.w.spec, b.o.workers, transport)
	} else {
		p, err = executePass(ctx, b.w.spec, b.o.workers)
	}
	if err != nil {
		return nil, err
	}
	p.cpu = cpuTime() - c0
	if b.droneTicks != nil {
		p.ticks = sum(b.droneTicks)
	}
	return p, nil
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// check applies the workload's oracles to one measured pass, counting
// its runs as failed when any disagrees.
func (b *bench) check(i int, p *pass) {
	b.attempted += p.runs
	var bad []string
	compare := func(what string, got digests, want *digests) {
		if got.aggregates != want.aggregates {
			bad = append(bad, fmt.Sprintf("%s: aggregate digest %.16s, want %.16s", what, got.aggregates, want.aggregates))
		}
		if got.results != "" && want.results != "" && got.results != want.results {
			bad = append(bad, fmt.Sprintf("%s: per-run digest chain %.16s, want %.16s", what, got.results, want.results))
		}
	}
	base := p
	if b.w.baseReps > 0 && p.results != nil {
		base = leading(p, b.w.baseReps)
	}
	if b.golden != nil {
		compare("golden", base.digest, b.golden)
	}
	if b.first == nil {
		d := p.digest
		b.first = &d
	} else {
		compare("pass-to-pass", p.digest, b.first)
	}
	if b.ref != nil && p.ticks != b.ref.ticks {
		bad = append(bad, fmt.Sprintf("%d ticks, campaign.Execute flew %d", p.ticks, b.ref.ticks))
	}
	if b.exactSuccess != nil {
		tol := campaign.DefaultTolerance().SuccessRatePts
		for gen, exact := range b.exactSuccess {
			got := 100 * ratio(float64(base.success[gen]), float64(base.drones[gen]))
			if math.Abs(got-exact) > tol {
				bad = append(bad, fmt.Sprintf("%v success %.1f%% vs exact %.1f%% (tolerance %.0f pts)", gen, got, exact, tol))
			}
		}
	}
	if len(bad) > 0 {
		b.failed += p.runs
		b.problems = append(b.problems, fmt.Sprintf("pass %d: %s", i, strings.Join(bad, "; ")))
	}
	logf(b.out, "pass %d: wall %.3f s busy %.3f s cpu %.3f s runs %d ticks %d runs/s %.3f us/tick %.2f digest %.16s",
		i, p.wall.Seconds(), p.busy.Seconds(), p.cpu.Seconds(), p.runs, p.ticks,
		float64(p.runs)/p.wall.Seconds(), usPerTick(p.busy, p.ticks), p.digest.aggregates)
}

func usPerTick(busy time.Duration, ticks int) float64 {
	return ratio(float64(busy)/1e3, float64(ticks))
}

// budgetLeft reports whether another unit of work of the given length
// still fits the measurement budget.
func (b *bench) budgetLeft(start time.Time, last time.Duration) bool {
	return time.Since(start)+last <= time.Duration(b.o.seconds*float64(time.Second))
}

// measure flies untraced passes for the budget (at least two, so the
// pass-to-pass oracle always has a pair) and reports end-to-end metrics.
func (b *bench) measure(ctx context.Context, res *result) error {
	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var passes []*pass
	start := time.Now()
	for {
		t0 := time.Now()
		p, err := b.untracedPass(ctx, nil)
		if err != nil {
			return err
		}
		b.check(len(passes), p)
		passes = append(passes, p)
		if len(passes) >= 2 && !b.budgetLeft(start, time.Since(t0)) {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	if !rssReset {
		logf(b.out, "peak RSS could not be reset; peak_rss_mb covers set-up and reference passes too")
	}

	var rps, upt, ms []float64
	var runs, ticks, success, drones int
	for _, p := range passes {
		rps = append(rps, float64(p.runs)/p.wall.Seconds())
		upt = append(upt, usPerTick(p.busy, p.ticks))
		ms = append(ms, p.missionMs...)
		runs += p.runs
		ticks += p.ticks
		for gen, n := range p.drones {
			success += p.success[gen]
			drones += n
		}
	}
	// Mission wall-time quantiles are printed, not gated: see README.md.
	logf(b.out, "mission_ms %d samples: p50 %.2f p75 %.2f p90 %.2f",
		len(ms), percentile(ms, 50), percentile(ms, 75), percentile(ms, 90))
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(b.setupS))
	set("runs_per_s", "1/s", median(rps))
	set("us_per_tick", "us", median(upt))
	set("ticks_per_run", "ticks", float64(ticks)/float64(runs))
	set("alloc_mb_per_run", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(runs))
	set("peak_rss_mb", "MB", peakRSSMB())
	set("success_pct", "%", 100*float64(success)/float64(drones))
	return nil
}

// measureTraced alternates untraced and traced passes for the budget (at
// least one cycle) and reports per-module metrics. The fleet workload
// also flies its cells solo, for the fleet cost ratio.
func (b *bench) measureTraced(ctx context.Context, res *result) error {
	fleet := b.w.spec.Timing.Fleet.Active()
	solo := b.w.spec
	solo.Timing.Fleet = nil

	var transport *timingTransport
	if b.w.coord {
		transport = &timingTransport{}
	}
	var untraced, soloPasses []*pass
	tot := newTraceTotals()
	start := time.Now()
	for cycle := 0; ; cycle++ {
		t0 := time.Now()
		p, err := b.untracedPass(ctx, transport)
		if err != nil {
			return err
		}
		b.check(len(untraced), p)
		untraced = append(untraced, p)
		if fleet {
			sp, err := executePass(ctx, solo, b.o.workers)
			if err != nil {
				return err
			}
			soloPasses = append(soloPasses, sp)
		}
		refResults := p.results
		if b.ref != nil {
			refResults = b.ref.results
		}
		runs0, busy0 := tot.runs, tot.busy
		mismatches, first, err := runTraced(ctx, b.w.spec, b.o.workers, refResults, b.droneTicks, tot)
		if err != nil {
			return err
		}
		b.attempted += tot.runs - runs0
		b.failed += mismatches
		if mismatches > 0 {
			b.problems = append(b.problems, fmt.Sprintf("traced pass %d: %d runs changed digest under the wrappers; first: %s",
				cycle, mismatches, first))
		}
		logf(b.out, "traced pass %d: busy %.3f s runs %d digest mismatches %d",
			cycle, (tot.busy - busy0).Seconds(), tot.runs-runs0, mismatches)
		if !b.budgetLeft(start, time.Since(t0)) {
			break
		}
	}
	b.layerMetrics(res, untraced, soloPasses, tot)
	return nil
}

// layerMetrics assembles the per-module metrics of a traced invocation.
func (b *bench) layerMetrics(res *result, untraced, solo []*pass, tot *traceTotals) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	for gen, suffix := range map[core.Generation]string{core.V1: ".v1", core.V2: ".v2", core.V3: ".v3"} {
		var g layers
		if l := tot.gens[gen]; l != nil {
			g = *l
		}
		c := func(k int) float64 { return float64(g.c[k]) }
		runs := float64(g.runs)
		set("detect.calls_per_run"+suffix, "count", ratio(c(detCalls), runs))
		set("detect.us_per_call"+suffix, "us", ratio(c(detNs)/1e3, c(detCalls)))
		set("detect.hit_pct"+suffix, "%", 100*ratio(c(detHits), c(detCalls)))
		set("mapping.insert_calls_per_run"+suffix, "count", ratio(c(insCalls), runs))
		set("mapping.insert_us_per_call"+suffix, "us", ratio(c(insNs)/1e3, c(insCalls)))
		set("mapping.points_per_insert"+suffix, "count", ratio(c(insPoints), c(insCalls)))
		set("mapping.blocked_calls_per_run"+suffix, "count", ratio(c(blocked), runs))
		set("mapping.map_mb_end"+suffix, "MB", ratio(float64(g.mapBytesEnd)/1e6, runs))
		set("planning.calls_per_run"+suffix, "count", ratio(c(planCalls), runs))
		set("planning.ms_per_call"+suffix, "ms", ratio(c(planNs)/1e6, c(planCalls)))
		set("planning.fail_pct"+suffix, "%", 100*ratio(c(planFails), c(planCalls)))
		set("planning.blocked_calls_per_plan"+suffix, "count", ratio(c(planBlocked), c(planCalls)))
	}

	runs := float64(tot.runs)
	set("scenario.other_us_per_tick", "us", ratio(float64(tot.otherNs)/1e3, float64(tot.ticks)))
	set("scenario.pipeline_busy_ms_per_run", "ms", ratio(tot.series["scenario_pipeline_stage_busy_ns_total"]/1e6, runs))
	set("scenario.pipeline_stall_ms_per_run", "ms", ratio(tot.series["scenario_pipeline_stall_ns_total"]/1e6, runs))
	set("scenario.planstage_stall_ms_per_run", "ms", ratio(tot.series["scenario_planstage_stall_ns_total"]/1e6, runs))
	set("scenario.planstage_stale_pct", "%", 100*ratio(tot.series["scenario_planstage_stale_dropped_total"], tot.series["scenario_planstage_delivered_total"]))
	set("core.replans_per_run", "count", ratio(float64(tot.replans), runs))
	set("core.failsafes_per_run", "count", ratio(float64(tot.fails), runs))

	// Untraced baselines: the Execute passes, or for the coordinator
	// workload its direct reference pass.
	direct := untraced
	if b.ref != nil {
		direct = []*pass{b.ref}
	}
	var upt, util []float64
	for _, p := range direct {
		upt = append(upt, usPerTick(p.busy, p.ticks))
		util = append(util, 100*ratio(p.busy.Seconds(), p.wall.Seconds()*float64(p.workers)))
	}
	set("campaign.worker_util_pct", "%", median(util))
	set("trace.overhead_pct", "%", 100*(ratio(usPerTick(tot.busy, tot.ticks), median(upt))-1))

	fleetRatio := 0.0
	if len(solo) > 0 {
		var soloUpt []float64
		for _, p := range solo {
			soloUpt = append(soloUpt, usPerTick(p.busy, p.ticks))
		}
		// Fleet ticks are drone-ticks, so a member that costs what a solo
		// drone does reads 1.
		fleetRatio = ratio(median(upt), median(soloUpt))
	}
	set("scenario.fleet_cost_ratio", "ratio", fleetRatio)

	var leases, reqs, httpMs, upBytes, coordWall []float64
	if b.ref != nil {
		for _, p := range untraced {
			n := float64(p.runs)
			leases = append(leases, float64(p.leases))
			reqs = append(reqs, float64(p.http.requests)/n)
			httpMs = append(httpMs, float64(p.http.roundTrip)/1e6/n)
			upBytes = append(upBytes, float64(p.http.uploadBytes)/n)
			coordWall = append(coordWall, p.wall.Seconds())
		}
	}
	set("coord.leases", "count", median(leases))
	set("coord.http_requests_per_run", "count", median(reqs))
	set("coord.http_ms_per_run", "ms", median(httpMs))
	set("coord.upload_bytes_per_run", "bytes", median(upBytes))
	overhead := 0.0
	if b.ref != nil {
		overhead = 100 * (median(coordWall)/b.ref.wall.Seconds() - 1)
	}
	set("coord.overhead_pct", "%", overhead)

	set("worldgen.gen_ms_per_cell", "ms", ratio(median(b.genMs), float64(b.nCells)))
	hits, misses, _ := worldgen.Shared.Stats()
	set("worldgen.cache_hit_pct", "%", 100*ratio(float64(hits), float64(hits+misses)))
}

func fmtSuccess(m map[core.Generation]float64) string {
	var parts []string
	for _, gen := range []core.Generation{core.V1, core.V2, core.V3} {
		if v, ok := m[gen]; ok {
			parts = append(parts, fmt.Sprintf("%v %.1f%%", gen, v))
		}
	}
	return strings.Join(parts, ", ")
}
