//! The policy decision log: one record per message, capturing exactly
//! what the probe saw, what feedback was live, and what the policy chose.
//!
//! Like the fleet's `PlacementLog`, this is both telemetry and a
//! *determinism witness*: the log serializes to canonical JSON and
//! hashes with FNV-1a 64, so two runs that claim to have made "the same
//! decisions" must prove it byte-for-byte. Any nondeterminism smuggled
//! into the decision path — a wall clock, a racing counter, float
//! state — surfaces as a digest mismatch.

use crate::policy::Decision;
use crate::probe::ProbeFeatures;
use crate::PolicySnapshot;
use pedal_obs::{Json, ToJson};

/// One message's probe → snapshot → decision triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyRecord {
    /// Trace sequence number (or service job id) of the message.
    pub seq: u64,
    pub tenant: u32,
    /// Probe features (integers only — see `ProbeFeatures`).
    pub len: u64,
    pub entropy_mbits: u32,
    pub match_pct: u32,
    pub stride: u8,
    /// Snapshot fields the decision read.
    pub snapshot_at_ns: u64,
    pub queue_depth: u64,
    pub p99_ns: u64,
    /// The decision itself.
    pub decision: &'static str,
    pub level: u8,
    pub chunk: u32,
    pub reason: &'static str,
}

impl PolicyRecord {
    /// Assemble a record from the decision path's three inputs.
    pub fn of(
        seq: u64,
        tenant: u32,
        f: &ProbeFeatures,
        snap: &PolicySnapshot,
        d: &Decision,
    ) -> Self {
        Self {
            seq,
            tenant,
            len: f.len as u64,
            entropy_mbits: f.entropy_mbits,
            match_pct: f.match_pct,
            stride: f.stride,
            snapshot_at_ns: snap.at.0,
            queue_depth: snap.queue_depth,
            p99_ns: snap.p99_ns,
            decision: match d.design() {
                Some(design) => design.name(),
                None => "store-raw",
            },
            level: d.level,
            chunk: d.chunk,
            reason: d.reason.name(),
        }
    }
}

impl ToJson for PolicyRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::u64(self.seq)),
            ("tenant", Json::u64(self.tenant as u64)),
            ("len", Json::u64(self.len)),
            ("entropy_mbits", Json::u64(self.entropy_mbits as u64)),
            ("match_pct", Json::u64(self.match_pct as u64)),
            ("stride", Json::u64(self.stride as u64)),
            ("snapshot_at_ns", Json::u64(self.snapshot_at_ns)),
            ("queue_depth", Json::u64(self.queue_depth)),
            ("p99_ns", Json::u64(self.p99_ns)),
            ("decision", Json::str(self.decision)),
            ("level", Json::u64(self.level as u64)),
            ("chunk", Json::u64(self.chunk as u64)),
            ("reason", Json::str(self.reason)),
        ])
    }
}

/// The full run's decisions, in decision order.
#[derive(Debug, Clone, Default)]
pub struct PolicyLog {
    pub records: Vec<PolicyRecord>,
}

impl PolicyLog {
    pub fn push(&mut self, record: PolicyRecord) {
        self.records.push(record);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of records whose decision string matches (e.g. "store-raw").
    pub fn count_decision(&self, decision: &str) -> usize {
        self.records.iter().filter(|r| r.decision == decision).count()
    }

    /// Canonical serialized form (the determinism witness).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.to_json().write(&mut out);
        out
    }

    /// FNV-1a 64 over the canonical serialization, as fixed-width hex.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_json_string().as_bytes()))
    }
}

impl ToJson for PolicyLog {
    fn to_json(&self) -> Json {
        Json::Arr(self.records.iter().map(|r| r.to_json()).collect())
    }
}

/// FNV-1a 64-bit: the digest behind every replay log (`pedal-fleet`
/// re-exports it for its placement log and reports).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptivePolicy, PolicySnapshot};
    use pedal_dpu::SimInstant;

    fn record() -> PolicyRecord {
        let policy = AdaptivePolicy::default();
        let data = pedal_datasets::DatasetId::LogText.generate_bytes(32 << 10);
        let snap = PolicySnapshot {
            at: SimInstant(5_000),
            queue_depth: 3,
            p99_ns: 80_000,
            engine_available: true,
        };
        let (f, d) = policy.probe_and_decide(&data, &snap);
        PolicyRecord::of(9, 4, &f, &snap, &d)
    }

    #[test]
    fn record_json_is_stable() {
        let mut r = record();
        // Pin the probe-derived fields so the golden string cannot drift
        // with generator tweaks; the *shape* is what this test freezes.
        r.entropy_mbits = 4_321;
        r.match_pct = 37;
        let mut out = String::new();
        r.to_json().write(&mut out);
        assert_eq!(
            out,
            r#"{"seq":9,"tenant":4,"len":32768,"entropy_mbits":4321,"match_pct":37,"stride":0,"snapshot_at_ns":5000,"queue_depth":3,"p99_ns":80000,"decision":"C-Engine_DEFLATE","level":6,"chunk":0,"reason":"offload"}"#,
            "canonical record serialization drifted"
        );
    }

    #[test]
    fn digest_is_a_pure_function_of_the_records() {
        let mut a = PolicyLog::default();
        let mut b = PolicyLog::default();
        a.push(record());
        b.push(record());
        assert_eq!(a.digest(), b.digest());
        b.push(PolicyRecord { seq: 10, ..record() });
        assert_ne!(a.digest(), b.digest());
        assert_eq!(b.len(), 2);
        assert_eq!(b.count_decision("C-Engine_DEFLATE"), 2);
    }

    #[test]
    fn fnv_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
