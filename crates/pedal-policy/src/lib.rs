//! # pedal-policy
//!
//! The online per-message adaptive policy: decide, for every message,
//! whether to compress at all, with which codec, at which placement
//! (SoC vs compression engine), and with what streaming chunk size —
//! using a probe that costs O(sample) plus live feedback that costs a
//! snapshot read.
//!
//! The paper's economics drive the shape: engine offload pays a fixed
//! latency toll (~60 µs class) that only amortizes when the message is
//! big and compressible; incompressible payloads waste the toll *and*
//! the codec cycles; numeric columns compress far better under a typed
//! delta codec than under any byte-oriented LZ. A static (codec,
//! placement) configuration is therefore wrong for part of every mixed
//! workload — CEAZ's adaptive co-design argument (PAPERS.md), applied
//! to the BlueField serving tier.
//!
//! Three modules:
//!
//! - [`mod@probe`] — the sampled compressibility probe ([`ProbeFeatures`]).
//! - [`policy`] — the pure decision function ([`AdaptivePolicy`]).
//! - [`log`] — the pinned decision log ([`PolicyLog`]), a determinism
//!   witness in the same mold as the fleet's placement log.
//!
//! ## Determinism contract
//!
//! [`AdaptivePolicy::decide`] is a pure function of `(ProbeFeatures,
//! PolicySnapshot)`. Probe features are pure in the message bytes;
//! snapshots are built from virtual-time sources read at deterministic
//! points (fleet epoch barriers, the service scheduler's own predicted
//! lane state). Replaying a trace therefore replays the decisions —
//! verified end-to-end by hashing the [`PolicyLog`].

pub mod log;
pub mod policy;
pub mod probe;

pub use crate::log::{fnv1a64, PolicyLog, PolicyRecord};
pub use crate::policy::{
    AdaptivePolicy, Decision, PolicyChoice, PolicyConfig, PolicyReason, PolicySnapshot,
};
pub use crate::probe::{probe, ProbeConfig, ProbeFeatures};

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_datasets::DatasetId;
    use pedal_dpu::SimInstant;

    /// The end-to-end determinism property the fleet digest relies on:
    /// replaying (messages, snapshots) replays the log digest exactly.
    #[test]
    fn replayed_decisions_hash_identically() {
        let run = || {
            let policy = AdaptivePolicy::default();
            let mut log = PolicyLog::default();
            for (seq, id) in DatasetId::MIXED.iter().cycle().take(24).enumerate() {
                let data = id.generate_bytes(16 << 10);
                let snap = PolicySnapshot {
                    at: SimInstant(seq as u64 * 1_000),
                    queue_depth: seq as u64 % 5,
                    p99_ns: 10_000 * seq as u64,
                    engine_available: seq % 2 == 0,
                };
                let (f, d) = policy.probe_and_decide(&data, &snap);
                log.push(PolicyRecord::of(seq as u64, 0, &f, &snap, &d));
            }
            log
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.digest(), b.digest());
        // And the log actually exercised more than one decision kind.
        assert!(a.count_decision("store-raw") > 0);
        assert!(a.count_decision("SoC_pco") > 0);
    }
}
