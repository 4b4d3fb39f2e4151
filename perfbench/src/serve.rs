//! serve-mixed: one client drives a `PedalService` (1 SoC worker, 1
//! C-Engine channel, adaptive policy) in a closed loop. Each request
//! submits compress jobs for K messages plus decompress jobs for the
//! previous request's outputs, then calls `drain()`.
//!
//! `drain()` hands back every completion since the service started, so
//! its cost grows with the session. The workload therefore runs
//! fixed-length sessions (start, R requests, shutdown): each session does
//! the same work, and a cycle is one session.

use crate::bulk::pct;
use crate::inputs::{mix, Message};
use crate::phase::{check_equal, Deadline, Phase};
use crate::trace::{aggregate, Tracer};
use crate::{Bench, Metric};
use pedal::wire;
use pedal::{Datatype, Design, PedalHeader};
use pedal_dpu::{Algorithm, Platform};
use pedal_service::{JobDesc, JobId, PedalService, PolicyConfig, ServiceConfig, ServiceStats};
use std::collections::HashMap;
use std::time::Instant;

/// Every this many messages (from a seeded offset), the first session's
/// output is byte-compared against `wire::compress_payload`.
const SAMPLE_ONE_IN: u64 = 8;

pub struct Serve {
    msgs: Vec<Message>,
    per_request: usize,
    requests: usize,
    /// Messages picked by the seed for the reference comparison.
    sample: Vec<bool>,
    /// Their outputs from the first session, compared after the timed
    /// phase so the check costs it neither time nor memory. The encoding
    /// is a function of the message and its design, so one session's
    /// outputs cover every later session's.
    sampled: Vec<(usize, Vec<u8>)>,
    first: Option<Session>,
}

/// Facts of one finished session (identical for every session).
struct Session {
    ratio: f64,
    stats: ServiceStats,
    passthrough: u64,
    decisions: Vec<&'static str>,
}

enum Job {
    Compress(usize),
    Decompress(usize),
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig::new(Platform::BlueField2)
        .with_soc_workers(1)
        .with_ce_channels(1)
        .with_adaptive_policy(PolicyConfig::default())
}

impl Serve {
    /// Sessions of `requests` requests of `per_request` messages each;
    /// `msgs` must hold one session's worth.
    pub fn new(msgs: Vec<Message>, per_request: usize, requests: usize, seed: u64) -> Self {
        assert!(msgs.len() >= per_request * requests, "one session needs distinct messages");
        let offset = mix(seed, 41) % SAMPLE_ONE_IN;
        let sample =
            (0..msgs.len() as u64).map(|m| (m + offset).is_multiple_of(SAMPLE_ONE_IN)).collect();
        Self { msgs, per_request, requests, sample, sampled: Vec::new(), first: None }
    }

    /// Submit one job, counting a refusal as a failure.
    fn submit(
        &self,
        svc: &PedalService,
        t: &mut Tracer,
        req: u64,
        desc: JobDesc,
        phase: &mut Phase,
    ) -> Option<JobId> {
        let n = desc.op.input_len() as u64;
        match t.span("service.submit", req, n, || svc.submit(desc)) {
            Ok(id) => Some(id),
            Err(e) => {
                phase.attempted += 1;
                phase.fail(format!("submit refused: {e}"));
                None
            }
        }
    }

    /// Check this request's completions. Returns verified raw bytes and
    /// the compressed outputs to decode next.
    fn collect(
        &mut self,
        done: &[pedal_service::CompletedJob],
        jobs: &HashMap<JobId, Job>,
        phase: &mut Phase,
        raw_wire: &mut (u64, u64),
    ) -> (u64, Vec<(usize, Vec<u8>)>) {
        let mut verified = 0;
        let mut outputs = Vec::new();
        for c in done {
            let Some(job) = jobs.get(&c.id) else { continue };
            let outcome = match (job, &c.result) {
                (_, Err(e)) => Err(format!("job {} failed: {e}", c.id)),
                (Job::Compress(m), Ok(out)) => {
                    raw_wire.0 += self.msgs[*m].data.len() as u64;
                    raw_wire.1 += out.bytes.len() as u64;
                    if self.first.is_none() && self.sample[*m] {
                        self.sampled.push((*m, out.bytes.clone()));
                    }
                    outputs.push((*m, out.bytes.clone()));
                    Ok(())
                }
                (Job::Decompress(m), Ok(out)) => {
                    let want = &self.msgs[*m].data;
                    let r = check_equal("service round trip", &out.bytes, want);
                    if r.is_ok() {
                        verified += want.len() as u64;
                    }
                    r
                }
            };
            phase.record(outcome);
        }
        (verified, outputs)
    }

    fn submit_decompress(
        &self,
        svc: &PedalService,
        t: &mut Tracer,
        req: u64,
        outputs: &[(usize, Vec<u8>)],
        jobs: &mut HashMap<JobId, Job>,
        phase: &mut Phase,
    ) {
        for (m, payload) in outputs {
            let design = match wire::unframe(payload) {
                Ok((PedalHeader::Compressed(d), _, _)) => d,
                _ => Design::SOC_LZ4,
            };
            let desc = JobDesc::decompress(design, payload.clone(), self.msgs[*m].data.len())
                .with_arrival(svc.now());
            if let Some(id) = self.submit(svc, t, req, desc, phase) {
                jobs.insert(id, Job::Decompress(*m));
            }
        }
    }

    /// One session: start, `requests` requests, decode the last outputs,
    /// shut down. Returns the raw bytes verified.
    fn session(&mut self, s: u64, t: &mut Tracer, phase: &mut Phase) -> u64 {
        t.enter("serve.session", s);
        let svc = t.span("service.start", s, 0, || PedalService::start(service_config()));
        let mut jobs = HashMap::new();
        let mut outputs: Vec<(usize, Vec<u8>)> = Vec::new();
        let (mut verified, mut seen, mut raw_wire) = (0u64, 0usize, (0u64, 0u64));
        for r in 0..self.requests {
            let req = s * self.requests as u64 + r as u64;
            let start = Instant::now();
            t.enter("serve.request", req);
            let arrival = svc.now();
            for m in r * self.per_request..(r + 1) * self.per_request {
                let desc = JobDesc::compress(
                    Design::CE_DEFLATE,
                    Datatype::Byte,
                    self.msgs[m].data.clone(),
                )
                .with_arrival(arrival);
                if let Some(id) = self.submit(&svc, t, req, desc, phase) {
                    jobs.insert(id, Job::Compress(m));
                }
            }
            self.submit_decompress(&svc, t, req, &outputs, &mut jobs, phase);
            let done = t.span("service.drain", req, 0, || svc.drain());
            let (v, next) = self.collect(&done[seen..], &jobs, phase, &mut raw_wire);
            seen = done.len();
            t.exit(v);
            phase.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            verified += v;
            outputs = next;
        }
        self.submit_decompress(&svc, t, u64::MAX, &outputs, &mut jobs, phase);
        let done = t.span("service.drain", u64::MAX, 0, || svc.drain());
        verified += self.collect(&done[seen..], &jobs, phase, &mut raw_wire).0;
        let decisions = svc
            .policy_log()
            .map(|log| log.records.iter().map(|r| r.decision).collect())
            .unwrap_or_default();
        let (all, stats) = t.span("service.shutdown", s, 0, || svc.shutdown());
        t.exit(verified);
        if self.first.is_none() {
            let passthrough =
                all.iter().filter(|c| c.result.as_ref().is_ok_and(|o| o.passthrough)).count();
            self.first = Some(Session {
                ratio: raw_wire.0 as f64 / raw_wire.1.max(1) as f64,
                stats,
                passthrough: passthrough as u64,
                decisions,
            });
        }
        verified
    }
}

/// What `pedal::wire` produces for `data` under the design the service
/// put in `payload`'s header: the adaptive policy picks the design, the
/// bytes must match the synchronous encoder's.
fn reference_payload(payload: &[u8], data: &[u8]) -> Vec<u8> {
    let design = match wire::unframe(payload) {
        Ok((PedalHeader::Compressed(d), _, _)) => d,
        _ => return wire::frame(PedalHeader::Uncompressed, data.len(), data),
    };
    let datatype = match design.algorithm {
        Algorithm::Pco => {
            match pedal_policy::probe(data, &pedal_policy::ProbeConfig::default()).stride {
                4 => Datatype::Float32,
                8 => Datatype::Float64,
                _ => Datatype::Byte,
            }
        }
        _ => Datatype::Byte,
    };
    wire::compress_payload(design, datatype, crate::kernels::EB, data)
        .map(|(p, _)| p)
        .unwrap_or_default()
}

impl Bench for Serve {
    fn warm(&mut self) -> Result<(), String> {
        let svc = PedalService::start(service_config());
        let warm = &self.msgs[..self.per_request.min(self.msgs.len())];
        for m in warm {
            svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, m.data.clone()))
                .map_err(|e| e.to_string())?;
        }
        let done = svc.drain();
        svc.shutdown();
        match done.iter().find_map(|c| c.result.as_ref().err()) {
            Some(e) => Err(format!("warm-up job failed: {e}")),
            None => Ok(()),
        }
    }

    fn run(&mut self, seconds: f64, t: &mut Tracer) -> Phase {
        let deadline = Deadline::after(seconds);
        let mut phase = Phase::default();
        for s in 0.. {
            let start = Phase::start_cycle();
            let bytes = self.session(s, t, &mut phase);
            phase.end_cycle(start, bytes);
            if deadline.passed() {
                break;
            }
        }
        phase
    }

    /// Byte-compare the sampled outputs with the reference encoder.
    fn check_deferred(&mut self, phase: &mut Phase) {
        for (m, payload) in std::mem::take(&mut self.sampled) {
            let want = reference_payload(&payload, &self.msgs[m].data);
            phase.record(check_equal(
                "service output against wire::compress_payload",
                &payload,
                &want,
            ));
        }
    }

    fn ratio(&self) -> f64 {
        self.first.as_ref().expect("a session ran").ratio
    }

    fn messages(&self) -> &[Message] {
        &self.msgs
    }

    /// `service.*` from the traced spans and the first session's
    /// statistics; `policy.*_pct` from its decision log.
    fn layer_metrics(&mut self, t: &mut Tracer) -> Result<Vec<Metric>, String> {
        let agg = aggregate(t.spans());
        let first = self.first.as_ref().expect("a session ran");
        let st = &first.stats;
        let n = first.decisions.len() as u64;
        let share = |f: &dyn Fn(&str) -> bool| {
            pct(first.decisions.iter().filter(|d| f(d)).count() as u64, n)
        };
        Ok(vec![
            Metric::new("service.submit_us", agg["service.submit"].mean_us(), "us"),
            Metric::new("service.drain_us", agg["service.drain"].mean_us(), "us"),
            Metric::new("service.start_ms", agg["service.start"].mean_ms(), "ms"),
            Metric::new("service.shutdown_ms", agg["service.shutdown"].mean_ms(), "ms"),
            Metric::new("service.completed", st.completed as f64, "count"),
            Metric::new("service.batched", st.batched_jobs as f64, "count"),
            Metric::new("service.passthrough", first.passthrough as f64, "count"),
            Metric::new("service.failed", st.failed as f64, "count"),
            Metric::new("service.rejected", st.rejected as f64, "count"),
            Metric::new("service.shed", st.shed as f64, "count"),
            Metric::new("policy.store_pct", share(&|d| d == "store-raw"), "%"),
            Metric::new("policy.pco_pct", share(&|d| d.ends_with("_pco")), "%"),
            Metric::new("policy.engine_pct", share(&|d| d.starts_with("C-Engine")), "%"),
        ])
    }
}
