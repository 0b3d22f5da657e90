package scenario

import (
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/obs"
)

// In-run pipelined perception.
//
// The inline runner executes perception — the depth-camera capture and the
// marker detector — on the control-loop goroutine, so the SIL tier has no
// sense-to-act latency at all and the HIL tier injects one synthetically
// (Timing.CommandLatencyTicks). The pipelined runner instead executes
// perception as its own stage, concurrent with the control loop, the way
// the deployed stack runs it as separate ROS nodes: the control loop
// snapshots the vehicle pose when a capture is due and hands the stage a
// tick-stamped job; the stage captures, runs inference, and delivers the
// result through a bounded channel; the control loop applies the result at
// tick T+k. The sense-to-act delay then *emerges* from stage cost (see
// hil.DerivePipelinedPlan) instead of being injected.
//
// Determinism: every stochastic input of the stage — the depth camera's
// noise stream, the color camera's photometric stream — is a per-concern
// RNG owned exclusively by the stage goroutine (the PR 1 stream split was
// designed for exactly this), and jobs are processed in submission order
// by a single stage goroutine. The applied epoch sequence is therefore a
// pure function of (seed, k): the same seed and the same latency produce
// bit-identical Results at any GOMAXPROCS, on any machine, under any
// scheduler interleaving. With k == 0 the handoff is synchronous and the
// run is bit-identical to PipelineOff — the oracle the pipeline tests use.

// PipelineMode selects how perception executes relative to the control
// loop.
type PipelineMode int

const (
	// PipelineOff runs detection and mapping inline on the control-loop
	// goroutine in the historical order — bit-identical to the pre-pipeline
	// engine (the committed golden digest guards this).
	PipelineOff PipelineMode = iota
	// PipelineOn runs perception on a concurrent stage with tick-stamped
	// delivery: results captured at tick T apply at tick T+k, where k is
	// Timing.PipelineLatencyTicks.
	PipelineOn
)

// String implements fmt.Stringer.
func (m PipelineMode) String() string {
	switch m {
	case PipelineOff:
		return "off"
	case PipelineOn:
		return "on"
	default:
		return "unknown"
	}
}

// StageObserver is an optional ResourceObserver extension: platform models
// that understand the pipelined runner receive one callback per applied
// perception batch with the work it carried and its tick-stamped delivery
// delay, so stage-timing series can be reconstructed (hil.Monitor).
type StageObserver interface {
	RecordStage(ranDetect, ranDepth bool, delayTicks int)
}

// perceptionJob is the tick-stamped snapshot the control loop hands the
// perception stage. It carries ground-truth pose by design: the stage
// plays the role of the physical sensors, which always see the true
// vehicle state; the system under test still only sees sensor outputs.
type perceptionJob struct {
	tick int
	// now is the mission time of the capture tick; the stage needs it for
	// the fault-injection window queries (it must not read the control
	// loop's clock, and re-deriving it from tick would not reproduce the
	// control loop's additive accumulation bit for bit).
	now      float64
	pos      geom.Vec3
	yaw      float64
	speed    float64
	depthDue bool
	frameDue bool
}

// perceptionResult is one stage delivery. Slices are owned by the stage's
// buffer rings and stay valid until at least ring-size further deliveries,
// which the in-flight bound guarantees exceeds the apply distance.
type perceptionResult struct {
	tick          int
	depthPts      []core.DepthPoint
	depthYaw      float64
	haveDepth     bool
	dets          []detect.Detection
	frameYaw      float64
	haveFrame     bool
	markerVisible bool
	// stageNs is the wall-clock cost of computing this result (reporting
	// only; never influences Results).
	stageNs int64
}

// perceptionStage is the concurrent half of a pipelined mission: one
// goroutine consuming jobs in order and delivering results in order over
// bounded channels sized so neither side can deadlock (at most one job per
// tick is outstanding for at most k ticks, so k+2 bounds the in-flight
// count).
type perceptionStage struct {
	jobs    chan perceptionJob
	results chan perceptionResult

	// depthRing and detRing rotate ownership of depth-point and detection
	// buffers across in-flight results, so the camera's reused capture
	// buffer and the detector's reused result can be copied out without
	// allocating per frame.
	depthRing [][]core.DepthPoint
	ringIdx   int
	detRing   [][]detect.Detection
	detIdx    int
}

func newPerceptionStage(k int) *perceptionStage {
	bound := k + 2
	return &perceptionStage{
		jobs:      make(chan perceptionJob, bound),
		results:   make(chan perceptionResult, bound),
		depthRing: make([][]core.DepthPoint, bound),
		detRing:   make([][]detect.Detection, bound),
	}
}

// run is the stage goroutine: sequential, in-order perception over the
// stage-owned sensors. It closes results when the job channel closes so
// the control loop can drain deterministically on shutdown.
func (st *perceptionStage) run(m *mission) {
	for job := range st.jobs {
		t0 := time.Now()
		res := perceptionResult{tick: job.tick}
		if job.depthDue {
			if returns, ok := m.captureDepth(job.pos, job.yaw, job.now); ok {
				buf := copyDepthPoints(st.depthRing[st.ringIdx], returns)
				st.depthRing[st.ringIdx] = buf
				st.ringIdx = (st.ringIdx + 1) % len(st.depthRing)
				res.depthPts = buf
				res.depthYaw = job.yaw
				res.haveDepth = true
			}
		}
		if job.frameDue {
			if frame, ok := m.captureFrame(job.pos, job.yaw, job.speed, job.now); ok {
				// Inference runs here, inside the stage, so the camera's reused
				// frame buffer never has to outlive this iteration. The
				// detector reuses its result too, so it is copied out.
				dets := append(st.detRing[st.detIdx][:0], m.sys.Detector().Detect(frame)...)
				st.detRing[st.detIdx] = dets
				st.detIdx = (st.detIdx + 1) % len(st.detRing)
				res.dets = dets
				res.frameYaw = job.yaw
				res.haveFrame = true
				res.markerVisible = markerInView(m.w, m.sc, job.pos, job.yaw)
			}
		}
		res.stageNs = time.Since(t0).Nanoseconds()
		st.results <- res
	}
	close(st.results)
}

// shutdown retires the stage: no more jobs, and any still-in-flight
// results (a mission that crashed or landed with work queued) are drained.
// Returns the stage compute of the drained tail for the overlap counters.
func (st *perceptionStage) shutdown() time.Duration {
	close(st.jobs)
	var ns int64
	for r := range st.results {
		ns += r.stageNs
	}
	return time.Duration(ns)
}

// PipelineStats is a snapshot of the process-wide pipelined-runner
// counters. Since the unified metrics plane (internal/obs) the counters
// live in the Default registry as scenario_pipeline_* series; this
// struct and ReadPipelineStats are the thin read-side shim the bench
// commands print.
type PipelineStats struct {
	// Runs is the number of pipelined missions completed; Batches the
	// number of perception jobs their stages executed.
	Runs, Batches int64
	// StageBusy is summed perception-stage compute; Stall is summed
	// control-loop time blocked waiting for a tick-stamped delivery; Wall
	// is summed pipelined-mission wall time. StageBusy - Stall is the
	// compute the pipeline hid behind the control loop.
	StageBusy, Stall, Wall time.Duration
}

// ReadPipelineStats returns the current process-wide counters (a shim
// over the internal/obs registry).
func ReadPipelineStats() PipelineStats {
	return PipelineStats{
		Runs:      mPipeRuns.Load(),
		Batches:   mPipeBatches.Load(),
		StageBusy: time.Duration(mPipeStageNs.Load()),
		Stall:     time.Duration(mPipeStallNs.Load()),
		Wall:      time.Duration(mPipeWallNs.Load()),
	}
}

// runPipelined executes the mission with the perception stage concurrent
// to the control loop. See the package comment above for the determinism
// argument.
func (m *mission) runPipelined() Result {
	k := m.t.PipelineLatencyTicks
	if k < 0 {
		k = 0
	}
	st := newPerceptionStage(k)
	go st.run(m)

	start := time.Now()
	res, batches, stageNs, stallNs := m.pipelinedLoop(st, k)
	stageNs += st.shutdown().Nanoseconds()

	mPipeRuns.Inc()
	mPipeBatches.Add(batches)
	mPipeStageNs.Add(stageNs)
	mPipeStallNs.Add(stallNs)
	mPipeWallNs.Add(time.Since(start).Nanoseconds())
	return res
}

// pipelinedLoop is the control loop of a pipelined mission. It returns the
// run result plus the overlap counters of the results it applied (the
// shutdown drain accounts for the rest).
func (m *mission) pipelinedLoop(st *perceptionStage, k int) (res Result, batches int64, stageNs, stallNs int64) {
	var nextDetect, nextDepth float64
	// pending is a fixed circular queue of in-flight jobs' apply ticks in
	// FIFO order; the stage preserves order, so the head always matches
	// the next delivery. At most one job per tick is outstanding for at
	// most k ticks, so k+2 slots never overflow — one allocation per run,
	// like cmdRing.
	pending := make([]int, k+2)
	pendHead, pendLen := 0, 0

	for i := 0; i < m.steps; i++ {
		m.now += m.t.Dt
		m.curTick = i
		blackout := m.beginFaultTick()
		epoch := m.beginTick()
		m.deliverDuePlan(i, blackout)

		// Submit before applying so k == 0 means a synchronous handoff
		// within the same tick (the PipelineOff oracle). A blacked-out
		// link submits nothing: the offboard stack never sees the tick.
		if !blackout && (m.now >= nextDepth || m.now >= nextDetect) {
			job := perceptionJob{
				tick:  i,
				now:   m.now,
				pos:   m.drone.Pos,
				yaw:   m.drone.Yaw,
				speed: m.drone.Speed(),
			}
			if m.now >= nextDepth {
				nextDepth = m.now + m.t.DepthPeriod
				job.depthDue = true
			}
			if m.now >= nextDetect {
				nextDetect = m.now + m.t.DetectPeriod
				job.frameDue = true
			}
			st.jobs <- job
			pending[(pendHead+pendLen)%len(pending)] = i + k
			pendLen++
			if m.rec != nil {
				m.record(obs.Event{Tick: i, T: m.now, Kind: "capture", Detail: payloadDetail(job.depthDue, job.frameDue)})
			}
		}

		// Apply the perception result stamped for this tick, blocking until
		// the stage catches up — the block is what keeps delivery
		// deterministic; its duration is the pipeline stall. A result due
		// during a blackout is drained but discarded (the link was down
		// when it would have arrived), keeping the queue in lockstep.
		markerVisible := false
		if pendLen > 0 && pending[pendHead] == i {
			pendHead = (pendHead + 1) % len(pending)
			pendLen--
			t0 := time.Now()
			r := <-st.results
			stallNs += time.Since(t0).Nanoseconds()
			stageNs += r.stageNs
			batches++
			if !blackout {
				// Stamp the delivery delay so the system projects the
				// capture with its pose belief from the capture tick.
				epoch.LagTicks = i - r.tick
				if r.haveDepth {
					epoch.Depth = r.depthPts
					epoch.DepthYaw = r.depthYaw
				}
				if r.haveFrame {
					epoch.Detections = r.dets
					epoch.HaveDetections = true
					epoch.FrameYaw = r.frameYaw
					markerVisible = r.markerVisible
					if markerVisible {
						m.res.MarkerVisibleFrames++
					}
				}
				if m.rec != nil {
					// With k == 0 the lag is 0 (omitted from the JSON) and
					// this pairs with the same-tick capture exactly like the
					// inline recorder — the k=0 trace-equality oracle.
					m.record(obs.Event{Tick: i, T: m.now, Kind: "apply",
						Detail: payloadDetail(r.haveDepth, r.haveFrame), Value: float64(i - r.tick)})
				}
				if so, ok := m.cfg.Observer.(StageObserver); ok {
					so.RecordStage(r.haveFrame, r.haveDepth, i-r.tick)
				}
			}
		}

		var cmd core.Command
		if blackout {
			cmd = m.lastCmd
		} else {
			cmd = m.stepSystem(epoch, markerVisible)
			m.lastCmd = cmd
		}
		applied := m.actuate(i, cmd)
		m.trackRecovery(blackout)
		if m.crashed(applied) {
			return m.res, batches, stageNs, stallNs
		}
		if m.sys.State().Terminal() || m.drone.Landed() {
			break
		}
	}
	return m.classify(), batches, stageNs, stallNs
}
