package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// pass is one untraced flight of a whole workload grid.
type pass struct {
	// wall is the campaign wall time; busy the summed per-mission wall;
	// cpu the process CPU time (user+system) the pass took, for telling
	// slow code from a contended machine.
	wall, busy, cpu time.Duration
	workers         int
	runs            int
	ticks           int
	// success and drones count landings and drones flown, per generation
	// (drones == runs except on fleet grids, where every member counts).
	success, drones map[core.Generation]int
	// missionMs is the wall time of each mission from its Configure call
	// to its result.
	missionMs []float64
	// grid and results are in canonical order; nil for coordinator
	// passes, whose results stay on the coordinator.
	grid    []campaign.Run
	results []scenario.Result
	digest  digests
	// coordinator passes only.
	leases int
	http   httpStats
}

// ticksOf is the exact simulated tick count of a run.
func ticksOf(r scenario.Result, t scenario.Timing) int {
	return int(math.Round(r.Duration / t.Dt))
}

// chainDigest hashes per-run result digests in canonical order, exactly
// as the golden files' "results" line does.
func chainDigest(results []scenario.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintln(h, r.Digest())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tally folds one result into a pass's landing counts.
func (p *pass) tally(r scenario.Result, gen core.Generation) {
	if r.FleetSize > 0 {
		p.success[gen] += r.FleetSuccesses
		p.drones[gen] += r.FleetSize
		return
	}
	if r.Outcome == scenario.Success {
		p.success[gen]++
	}
	p.drones[gen]++
}

func newPass() *pass {
	return &pass{success: map[core.Generation]int{}, drones: map[core.Generation]int{}}
}

// executePass flies spec through campaign.Execute with unordered delivery,
// timing every mission from its Configure call to its OnResult call. A
// Configure hook already on spec still runs.
func executePass(ctx context.Context, spec campaign.Spec, workers int) (*pass, error) {
	n := spec.Total()
	starts := make([]time.Time, n)
	p := newPass()
	p.missionMs = make([]float64, 0, n)
	inner := spec.Configure
	spec.Configure = func(r campaign.Run, sc *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
		starts[r.Index] = time.Now()
		if inner != nil {
			inner(r, sc, sys, cfg)
		}
	}
	opts := campaign.Options{
		Workers: workers,
		OnResult: func(r campaign.Run, res scenario.Result) {
			p.missionMs = append(p.missionMs, float64(time.Since(starts[r.Index]))/1e6)
		},
	}
	rep, err := campaign.Execute(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	p.grid, _ = spec.Runs()
	p.wall, p.busy, p.workers = rep.Wall, rep.Busy, rep.Workers
	p.runs = len(rep.Results)
	p.results = rep.Results
	for i, r := range rep.Results {
		p.ticks += ticksOf(r, spec.Timing)
		p.tally(r, p.grid[i].Gen)
	}
	p.digest = digests{aggregates: rep.Digest(), results: chainDigest(rep.Results)}
	return p, nil
}

// leading returns the sub-campaign of a pass made of each cell's first
// reps repetitions: its landing counts, and its digests aggregated the way
// campaign.Execute does.
func leading(p *pass, reps int) *pass {
	sub := newPass()
	aggs := map[core.Generation]*scenario.Aggregate{}
	for i, ru := range p.grid {
		if ru.Rep >= reps {
			continue
		}
		r := p.results[i]
		sub.results = append(sub.results, r)
		sub.tally(r, ru.Gen)
		if aggs[ru.Gen] == nil {
			aggs[ru.Gen] = scenario.NewAggregate(ru.Gen.String())
		}
		aggs[ru.Gen].Add(r)
	}
	sub.digest = digests{aggregates: campaign.AggregatesDigest(aggs), results: chainDigest(sub.results)}
	return sub
}

// droneTickPass flies spec once with a flight recorder on every run and
// returns each run's simulated ticks summed over its fleet members.
func droneTickPass(ctx context.Context, spec campaign.Spec, workers int) (*pass, []int, error) {
	ticks := make([]int, spec.Total())
	spec.Configure = func(r campaign.Run, _ *worldgen.Scenario, _ *core.System, cfg *scenario.RunConfig) {
		cfg.Recorder = tickRecorder{n: &ticks[r.Index]}
	}
	p, err := executePass(ctx, spec, workers)
	if err != nil {
		return nil, nil, err
	}
	for i, n := range ticks {
		if n == 0 {
			return nil, nil, fmt.Errorf("run %d recorded no terminal event", i)
		}
	}
	return p, ticks, nil
}

// tickRecorder adds up the members' ticks of one run from their terminal
// events. The runner records from the run's control loop only.
type tickRecorder struct{ n *int }

func (t tickRecorder) Record(ev obs.Event) {
	if ev.Kind == "end" {
		*t.n += ev.Tick + 1
	}
}

// httpStats is what the timing transport saw of one coordinator pass.
type httpStats struct {
	requests    int64
	roundTrip   time.Duration
	uploadBytes int64
}

// timingTransport times every worker→coordinator round trip and counts
// request bodies (lease pulls, heartbeats, gzip result uploads).
type timingTransport struct {
	base        http.RoundTripper
	requests    atomic.Int64
	ns          atomic.Int64
	uploadBytes atomic.Int64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.uploadBytes.Add(req.ContentLength)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.ns.Add(int64(time.Since(t0)))
	t.requests.Add(1)
	return resp, err
}

// missionProfile is the coordinator profile the benchmark registers: the
// worker resolves it per lease and attaches a recorder that timestamps
// each mission's terminal event, since the worker's own result stream
// never leaves the coord package.
const missionProfile = "campaignbench-missions"

// missionSink collects per-mission wall times and tick counts from the
// recorders of one coordinator pass.
type missionSink struct {
	mu    sync.Mutex
	ms    []float64
	busy  time.Duration
	ticks int
}

// activeSink is the sink of the coordinator pass in flight; the profile
// registered at start-up reads it.
var activeSink atomic.Pointer[missionSink]

type endRecorder struct {
	sink  *missionSink
	start time.Time
}

func (e *endRecorder) Record(ev obs.Event) {
	if ev.Kind != "end" || ev.Member != 0 {
		return
	}
	d := time.Since(e.start)
	e.sink.mu.Lock()
	e.sink.ms = append(e.sink.ms, float64(d)/1e6)
	e.sink.busy += d
	e.sink.ticks += ev.Tick + 1
	e.sink.mu.Unlock()
}

func init() {
	coord.RegisterProfile(missionProfile, func(scenario.Timing) coord.ConfigureFunc {
		return func(_ campaign.Run, _ *worldgen.Scenario, _ *core.System, cfg *scenario.RunConfig) {
			if sink := activeSink.Load(); sink != nil {
				cfg.Recorder = &endRecorder{sink: sink, start: time.Now()}
			}
		}
	})
}

// coordPass flies spec through a fresh loopback coordinator and one
// in-process coord.Work worker running workers engine goroutines. A
// non-nil transport times the worker's HTTP traffic.
func coordPass(ctx context.Context, spec campaign.Spec, workers int, transport *timingTransport) (*pass, error) {
	c, err := coord.NewCoordinator(coord.Config{Spec: spec, Profile: missionProfile})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &http.Client{Timeout: 60 * time.Second}
	if transport != nil {
		transport.base = http.DefaultTransport
		client.Transport = transport
	}
	sink := &missionSink{}
	activeSink.Store(sink)
	defer activeSink.Store(nil)

	t0 := time.Now()
	_, err = coord.Work(ctx, coord.WorkerOptions{
		Addr: srv.URL, Name: "campaignbench", EngineWorkers: workers,
		PollInterval: 20 * time.Millisecond, Client: client,
	})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	select {
	case <-c.Done():
	default:
		return nil, fmt.Errorf("coordinator pass: worker exited before the campaign completed")
	}
	p := newPass()
	p.wall, p.workers = wall, workers
	st := c.Status()
	p.runs, p.leases = st.Done, st.Leases
	for gen, agg := range c.Aggregates() {
		p.success[gen] += agg.Success
		p.drones[gen] += agg.Runs
	}
	p.digest = digests{aggregates: c.Digest()}
	sink.mu.Lock()
	p.missionMs, p.busy, p.ticks = sink.ms, sink.busy, sink.ticks
	sink.mu.Unlock()
	if len(p.missionMs) != p.runs {
		return nil, fmt.Errorf("coordinator pass: %d mission end events for %d runs", len(p.missionMs), p.runs)
	}
	if transport != nil {
		p.http = httpStats{
			requests:    transport.requests.Swap(0),
			roundTrip:   time.Duration(transport.ns.Swap(0)),
			uploadBytes: transport.uploadBytes.Swap(0),
		}
	}
	return p, nil
}
