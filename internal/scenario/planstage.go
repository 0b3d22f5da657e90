package scenario

import (
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// In-run staged planning.
//
// PR 4 moved perception off the control loop; this file does the same for
// path planning, the second staged subsystem of ROADMAP item 2. When
// Timing.PlanLatencyTicks is k >= 1, the system's planTo no longer runs the
// planner inline: it snapshots (start, goal) into a tick-stamped job, the
// stage goroutine plans against the frozen map, and the control loop
// applies the delivered plan at tick T+k. While the request is in flight
// the follower is stopped, so the vehicle hovers — the paper's "trajectory
// failed to create in time" becomes observable hover time instead of a
// stretched replan cadence.
//
// Determinism mirrors the perception stage: a single stage goroutine
// processes jobs in submission order, the control loop blocks on the
// delivery tick until the stage catches up, and the planner's RNG is drawn
// once per request in request order. The applied plan sequence is a pure
// function of (seed, k) at any GOMAXPROCS. The map the stage reads is
// frozen for the duration of a request: core.System defers its map writes
// (local-map recenters and depth-cloud insertions) while a request is
// pending and flushes them, in order, at delivery.

// planJob is one tick-stamped planning request.
type planJob struct {
	tick        int
	start, goal geom.Vec3
}

// planResult is one stage delivery. The path may be the planner's reused
// buffer; it stays valid because at most one request is in flight and the
// next one is submitted only after this delivery has been consumed.
type planResult struct {
	tick int
	path []geom.Vec3
	err  error
	// stageNs is the wall-clock planning cost (reporting only).
	stageNs int64
}

// planStage is the concurrent planner of a staged mission: one goroutine
// consuming requests in order over bounded channels. At most one request is
// in flight at a time (the system hovers until delivery), so k+2 bounds the
// channel depth with room to spare.
type planStage struct {
	jobs    chan planJob
	results chan planResult
}

func newPlanStage(k int) *planStage {
	bound := k + 2
	return &planStage{
		jobs:    make(chan planJob, bound),
		results: make(chan planResult, bound),
	}
}

// run is the stage goroutine: sequential, in-order planning against the
// frozen map. It closes results when the job channel closes so the control
// loop can drain deterministically on shutdown.
func (st *planStage) run(m *mission) {
	for job := range st.jobs {
		t0 := time.Now()
		path, err := m.sys.PlanOnStage(job.start, job.goal)
		st.results <- planResult{
			tick:    job.tick,
			path:    path,
			err:     err,
			stageNs: time.Since(t0).Nanoseconds(),
		}
	}
	close(st.results)
}

// shutdown retires the stage: no more requests, and any still-in-flight
// result is drained. Returns the drained tail's stage compute.
func (st *planStage) shutdown() time.Duration {
	close(st.jobs)
	var ns int64
	for r := range st.results {
		ns += r.stageNs
	}
	return time.Duration(ns)
}

// PlanStageStats is a snapshot of the process-wide staged-planner
// counters. Like PipelineStats, the counters themselves live in the
// internal/obs Default registry (scenario_planstage_* series); this is
// the read-side shim the bench commands print.
type PlanStageStats struct {
	// Runs is the number of staged-planner missions completed; Plans the
	// number of planning requests their stages executed.
	Runs, Plans int64
	// StageBusy is summed planner-stage compute; Stall is summed
	// control-loop time blocked on a plan delivery. StageBusy - Stall is
	// the planning compute hidden behind the control loop.
	StageBusy, Stall time.Duration
}

// ReadPlanStageStats returns the current process-wide counters (a shim
// over the internal/obs registry).
func ReadPlanStageStats() PlanStageStats {
	return PlanStageStats{
		Runs:      mPlanRuns.Load(),
		Plans:     mPlanDelivered.Load(),
		StageBusy: time.Duration(mPlanStageNs.Load()),
		Stall:     time.Duration(mPlanStallNs.Load()),
	}
}

// submitPlan is the callback core.System invokes (instead of planning
// inline) when the plan stage is enabled. It stamps the request with the
// control loop's current tick; delivery is due k ticks later.
func (m *mission) submitPlan(start, goal geom.Vec3) {
	m.plans.jobs <- planJob{tick: m.curTick, start: start, goal: goal}
	m.planDue = m.curTick + m.t.PlanLatencyTicks
	m.planInFlight = true
	if m.rec != nil {
		m.record(obs.Event{Tick: m.curTick, T: m.now, Kind: "plan-request"})
	}
}

// deliverDuePlan applies the plan stamped for tick i, blocking until the
// stage catches up — the block keeps delivery deterministic; its duration
// is the planner stall. A plan due during a comms blackout is drained but
// abandoned (the stack was frozen when it would have arrived); the system
// re-requests on its next live tick. No-op when no request is in flight,
// which is the only cost on unstaged runs.
func (m *mission) deliverDuePlan(i int, blackout bool) {
	if !m.planInFlight || i < m.planDue {
		return
	}
	t0 := time.Now()
	r := <-m.plans.results
	m.planStallNs += time.Since(t0).Nanoseconds()
	m.planStageNs += r.stageNs
	m.planCount++
	m.planInFlight = false
	if blackout {
		m.sys.AbandonPlan()
		if m.rec != nil {
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-abandon"})
		}
		return
	}
	disp := m.sys.DeliverPlan(r.path, r.err)
	if disp == core.PlanStale {
		m.planStaleCnt++
	}
	if m.rec != nil {
		switch disp {
		case core.PlanStale:
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-stale"})
		case core.PlanApplied:
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-deliver", Detail: "applied"})
		case core.PlanFallback:
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-deliver", Detail: "fallback"})
		case core.PlanFailsafe:
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-deliver", Detail: "failsafe"})
		}
	}
}

// finishPlanStage retires the stage after the mission ends (any pending
// request is drained), detaches the system's submit hook so the System can
// outlive the mission safely, and folds the run into the process-wide
// counters.
func (m *mission) finishPlanStage() {
	m.planStageNs += m.plans.shutdown().Nanoseconds()
	m.sys.DisablePlanStage()
	mPlanRuns.Inc()
	mPlanDelivered.Add(m.planCount)
	mPlanStale.Add(m.planStaleCnt)
	mPlanStageNs.Add(m.planStageNs)
	mPlanStallNs.Add(m.planStallNs)
}
