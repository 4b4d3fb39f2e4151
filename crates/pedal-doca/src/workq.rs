//! Simulated `doca_workq`: FIFO job submission against a single engine
//! channel with virtual-time queueing.
//!
//! The engine is modelled as one server per channel: a job's start time is
//! `max(submit_time, channel_busy_until)` and its completion is
//! `start + service_time`. This surfaces engine contention when multiple
//! submitters share one DPU (exercised by the engine-contention ablation).
//! The hardware exposes several work queues against the same compression
//! block; each [`Workq`] is one of them, with its own depth limit, which
//! the serving layer exploits for concurrency.

use crate::engine::{execute, CompressJob, EngineError, JobResult};
use pedal_dpu::{CostModel, SimInstant};
use std::sync::Mutex;

/// Handle to a completed job with its virtual completion time.
#[derive(Debug)]
pub struct JobHandle {
    pub result: Result<JobResult, EngineError>,
    /// When the engine started serving the job.
    pub started_at: SimInstant,
    /// When the engine finished (virtual time).
    pub completed_at: SimInstant,
}

/// Handle to a completed batch submission: every job ran back-to-back in
/// one engine pass, paying the per-job submission overhead once.
#[derive(Debug)]
pub struct BatchHandle {
    pub results: Vec<Result<JobResult, EngineError>>,
    pub started_at: SimInstant,
    pub completed_at: SimInstant,
}

/// A work queue bound to one engine channel.
#[derive(Debug)]
pub struct Workq {
    costs: CostModel,
    busy_until: Mutex<SimInstant>,
    depth: usize,
    inflight: Mutex<usize>,
}

/// Error when the queue is full (DOCA returns `-DOCA_ERROR_NO_MEMORY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work queue full")
    }
}

impl std::error::Error for QueueFull {}

impl Workq {
    /// DOCA's default queue depth.
    pub const DEFAULT_DEPTH: usize = 32;

    pub fn new(costs: CostModel, depth: usize) -> Self {
        Self {
            costs,
            busy_until: Mutex::new(SimInstant::EPOCH),
            depth: depth.max(1),
            inflight: Mutex::new(0),
        }
    }

    /// The queue's descriptor capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The cost model this queue charges against.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Submit a job at virtual time `now` and run it to completion
    /// synchronously on the host; the returned handle carries the virtual
    /// start/completion instants including FIFO queueing delay.
    pub fn submit(&self, job: CompressJob, now: SimInstant) -> Result<JobHandle, QueueFull> {
        {
            let mut inflight = self.inflight.lock().unwrap();
            if *inflight >= self.depth {
                return Err(QueueFull);
            }
            *inflight += 1;
        }
        let result = execute(&job, &self.costs);
        let (started_at, completed_at) = {
            let mut busy = self.busy_until.lock().unwrap();
            let start = (*busy).max(now);
            let done = match &result {
                Ok(r) => start + r.service_time,
                Err(_) => start, // failed jobs release the engine immediately
            };
            *busy = done;
            (start, done)
        };
        *self.inflight.lock().unwrap() -= 1;
        Ok(JobHandle { result, started_at, completed_at })
    }

    /// Submit several same-direction jobs as one engine pass. The batch
    /// occupies `jobs.len()` queue descriptors but pays the per-job
    /// submission overhead once, which is the whole point of coalescing
    /// sub-threshold messages (paper Table III measures that overhead at
    /// 60 µs per compress job on BF2). Outputs are byte-identical to
    /// individual submissions; only the virtual timing differs.
    pub fn submit_batch(
        &self,
        jobs: Vec<CompressJob>,
        now: SimInstant,
    ) -> Result<BatchHandle, QueueFull> {
        assert!(!jobs.is_empty(), "empty batch");
        let dir = jobs[0].kind.direction();
        assert!(
            jobs.iter().all(|j| j.kind.direction() == dir),
            "batch must be direction-homogeneous"
        );
        {
            let mut inflight = self.inflight.lock().unwrap();
            if *inflight + jobs.len() > self.depth {
                return Err(QueueFull);
            }
            *inflight += jobs.len();
        }
        let results: Vec<_> = jobs.iter().map(|j| execute(j, &self.costs)).collect();
        // Sum of individual services, minus the k-1 redundant fixed
        // overheads the coalesced submission avoids.
        let overhead = self.costs.cengine_job_overhead(dir);
        let mut service = pedal_dpu::SimDuration::ZERO;
        let mut ok = 0u64;
        for r in results.iter().flatten() {
            service += r.service_time;
            ok += 1;
        }
        let saved = overhead * ok.saturating_sub(1);
        let service = service.saturating_sub(saved);
        let (started_at, completed_at) = {
            let mut busy = self.busy_until.lock().unwrap();
            let start = (*busy).max(now);
            let done = start + service;
            *busy = done;
            (start, done)
        };
        *self.inflight.lock().unwrap() -= jobs.len();
        Ok(BatchHandle { results, started_at, completed_at })
    }

    /// [`Workq::submit`] plus journal spans: the FIFO wait inside the
    /// work queue (`workq-queue`, submit → engine start) and the engine
    /// pass itself (`engine-execute`, start → completion, arg = input
    /// bytes). With a disabled recorder this is byte- and time-identical
    /// to the untraced path.
    pub fn submit_traced(
        &self,
        job: CompressJob,
        now: SimInstant,
        rec: &mut pedal_obs::LaneRecorder,
    ) -> Result<JobHandle, QueueFull> {
        let bytes = job.input.len() as u64;
        let h = self.submit(job, now)?;
        rec.span(pedal_obs::SpanKind::WorkqQueue, now, h.started_at, bytes);
        rec.span(pedal_obs::SpanKind::EngineExecute, h.started_at, h.completed_at, bytes);
        Ok(h)
    }

    /// [`Workq::submit_batch`] plus journal spans; `engine-execute`'s
    /// arg is the total batch payload in bytes.
    pub fn submit_batch_traced(
        &self,
        jobs: Vec<CompressJob>,
        now: SimInstant,
        rec: &mut pedal_obs::LaneRecorder,
    ) -> Result<BatchHandle, QueueFull> {
        let bytes: u64 = jobs.iter().map(|j| j.input.len() as u64).sum();
        let h = self.submit_batch(jobs, now)?;
        rec.span(pedal_obs::SpanKind::WorkqQueue, now, h.started_at, bytes);
        rec.span(pedal_obs::SpanKind::EngineExecute, h.started_at, h.completed_at, bytes);
        Ok(h)
    }

    /// Virtual time at which the engine becomes idle.
    pub fn busy_until(&self) -> SimInstant {
        *self.busy_until.lock().unwrap()
    }

    /// Reset queueing state (between benchmark repetitions).
    pub fn reset(&self) {
        *self.busy_until.lock().unwrap() = SimInstant::EPOCH;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::JobKind;
    use pedal_dpu::{Platform, SimDuration};

    fn workq() -> Workq {
        Workq::new(CostModel::for_platform(Platform::BlueField2), Workq::DEFAULT_DEPTH)
    }

    #[test]
    fn single_job_completes_at_submit_plus_service() {
        let q = workq();
        let now = SimInstant(5_000_000);
        let h = q
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![9u8; 1_000_000]), now)
            .unwrap();
        let r = h.result.unwrap();
        assert_eq!(h.started_at, now);
        assert_eq!(h.completed_at, now + r.service_time);
    }

    #[test]
    fn fifo_queueing_serializes_jobs() {
        let q = workq();
        let now = SimInstant::EPOCH;
        let h1 = q
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![1u8; 4_000_000]), now)
            .unwrap();
        // Second job submitted at the same instant must wait for the first.
        let h2 = q
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![2u8; 4_000_000]), now)
            .unwrap();
        assert_eq!(h2.started_at, h1.completed_at);
        assert!(h2.completed_at > h1.completed_at);
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let q = workq();
        let h1 = q
            .submit(
                CompressJob::new(JobKind::DeflateCompress, vec![1u8; 100_000]),
                SimInstant::EPOCH,
            )
            .unwrap();
        // Submit long after the first finished: no queueing delay.
        let later = h1.completed_at + SimDuration::from_millis(100);
        let h2 = q
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![2u8; 100_000]), later)
            .unwrap();
        assert_eq!(h2.started_at, later);
    }

    #[test]
    fn failed_jobs_do_not_hold_the_engine() {
        let q = workq();
        let h = q
            .submit(CompressJob::new(JobKind::DeflateDecompress, vec![0xAB; 16]), SimInstant::EPOCH)
            .unwrap();
        assert!(h.result.is_err());
        assert_eq!(q.busy_until(), h.started_at);
    }

    #[test]
    fn reset_clears_backlog() {
        let q = workq();
        q.submit(
            CompressJob::new(JobKind::DeflateCompress, vec![1u8; 8_000_000]),
            SimInstant::EPOCH,
        )
        .unwrap();
        assert!(q.busy_until() > SimInstant::EPOCH);
        q.reset();
        assert_eq!(q.busy_until(), SimInstant::EPOCH);
    }

    #[test]
    fn batch_amortizes_per_job_overhead() {
        let q = workq();
        let jobs: Vec<_> = (0..4)
            .map(|i| CompressJob::new(JobKind::DeflateCompress, vec![i as u8; 50_000]))
            .collect();
        // Individual submissions, back to back.
        let mut individual = SimDuration::ZERO;
        for job in jobs.clone() {
            let h = q.submit(job, SimInstant::EPOCH + individual).unwrap();
            individual = h.completed_at.elapsed_since(SimInstant::EPOCH);
        }
        q.reset();
        let b = q.submit_batch(jobs, SimInstant::EPOCH).unwrap();
        let batched = b.completed_at.elapsed_since(b.started_at);
        let overhead = q.costs().cengine_job_overhead(pedal_dpu::Direction::Compress);
        assert_eq!(batched + overhead * 3, individual, "batch saves exactly k-1 overheads");
        // Outputs identical to individual execution.
        for (i, r) in b.results.iter().enumerate() {
            let r = r.as_ref().unwrap();
            let direct =
                pedal_deflate::compress(&vec![i as u8; 50_000], pedal_deflate::Level::DEFAULT);
            assert_eq!(r.output, direct);
        }
    }

    #[test]
    fn batch_respects_depth() {
        let q = Workq::new(CostModel::for_platform(Platform::BlueField2), 4);
        let jobs: Vec<_> =
            (0..5).map(|_| CompressJob::new(JobKind::DeflateCompress, vec![7u8; 1_000])).collect();
        assert!(q.submit_batch(jobs, SimInstant::EPOCH).is_err());
    }

    #[test]
    fn channels_are_independent_servers() {
        let costs = CostModel::for_platform(Platform::BlueField2);
        let (ch0, ch1) = (Workq::new(costs, 8), Workq::new(costs, 8));
        let now = SimInstant::EPOCH;
        let a = ch0
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![1u8; 4_000_000]), now)
            .unwrap();
        // Same instant on the other channel: no queueing behind channel 0.
        let b = ch1
            .submit(CompressJob::new(JobKind::DeflateCompress, vec![2u8; 4_000_000]), now)
            .unwrap();
        assert_eq!(a.started_at, now);
        assert_eq!(b.started_at, now);
        assert!(ch0.busy_until() > now && ch1.busy_until() > now);
    }

    #[test]
    fn traced_submit_matches_untraced_and_records_spans() {
        let q = workq();
        let mut rec = pedal_obs::LaneRecorder::new("ce-test", 64);
        let now = SimInstant::EPOCH;
        let h1 =
            q.submit(CompressJob::new(JobKind::DeflateCompress, vec![3u8; 500_000]), now).unwrap();
        q.reset();
        let h2 = q
            .submit_traced(
                CompressJob::new(JobKind::DeflateCompress, vec![3u8; 500_000]),
                now,
                &mut rec,
            )
            .unwrap();
        // Identical outputs and virtual timing.
        assert_eq!(h1.result.unwrap().output, h2.result.unwrap().output);
        assert_eq!(h1.completed_at, h2.completed_at);
        let t = rec.into_track();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].span, pedal_obs::SpanKind::WorkqQueue);
        assert_eq!(t.events[1].span, pedal_obs::SpanKind::EngineExecute);
        assert_eq!(t.events[1].t1 - t.events[1].t0, h2.completed_at.0 - h2.started_at.0);
        assert_eq!(t.events[1].arg, 500_000);
    }

    #[test]
    fn traced_batch_records_total_payload() {
        let q = workq();
        let mut rec = pedal_obs::LaneRecorder::new("ce-test", 64);
        let jobs: Vec<_> =
            (0..3).map(|i| CompressJob::new(JobKind::DeflateCompress, vec![i; 10_000])).collect();
        let b = q.submit_batch_traced(jobs, SimInstant::EPOCH, &mut rec).unwrap();
        assert_eq!(b.results.len(), 3);
        let t = rec.into_track();
        assert_eq!(t.events[1].arg, 30_000);
        assert_eq!(
            t.total_ns(pedal_obs::SpanKind::EngineExecute),
            b.completed_at.0 - b.started_at.0
        );
    }
}
