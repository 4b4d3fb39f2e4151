//! The placement log: one record per arrival, capturing exactly what
//! the router decided and why.
//!
//! The log serves two masters. As *telemetry* it explains every shed
//! and every ladder degradation. As a *determinism witness* it is
//! serialized to JSON and hashed: two runs of the same seed and config
//! must produce byte-identical logs, so any hidden nondeterminism
//! (thread timing, map iteration order, float drift) surfaces as a
//! digest mismatch instead of a silent divergence.

use crate::config::{LadderLevel, TenantClass};
use pedal::Design;
use pedal_obs::{Json, ToJson};
use pedal_policy::fnv1a64;
use pedal_service::JobId;

/// Why a job was shed at fleet admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket was empty.
    Bucket,
    /// Every capable node's predicted backlog exceeded the guard.
    Backlog,
}

impl ShedReason {
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Bucket => "bucket",
            ShedReason::Backlog => "backlog",
        }
    }
}

/// What the router did with one arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementAction {
    /// Submitted to node `node` as `design` (possibly degraded from the
    /// request by capability or ladder), service job id `job`.
    Submitted { node: usize, design: Design, level: LadderLevel, job: JobId },
    /// Ladder level Store: framed as uncompressed passthrough without
    /// touching any node.
    Stored { bytes: usize },
    /// Shed at fleet admission.
    Shed { reason: ShedReason },
}

/// One arrival's routing outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementRecord {
    /// Trace sequence number of the arrival.
    pub seq: u64,
    pub tenant: u32,
    pub class: TenantClass,
    /// The design the workload asked for.
    pub requested: Design,
    pub action: PlacementAction,
}

impl ToJson for PlacementRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq", Json::u64(self.seq)),
            ("tenant", Json::u64(self.tenant as u64)),
            ("class", Json::str(self.class.name())),
            ("requested", Json::str(self.requested.to_string())),
        ];
        match &self.action {
            PlacementAction::Submitted { node, design, level, job } => {
                fields.push(("action", Json::str("submitted")));
                fields.push(("node", Json::u64(*node as u64)));
                fields.push(("design", Json::str(design.to_string())));
                fields.push(("level", Json::str(level.name())));
                fields.push(("job", Json::u64(*job)));
            }
            PlacementAction::Stored { bytes } => {
                fields.push(("action", Json::str("stored")));
                fields.push(("bytes", Json::u64(*bytes as u64)));
            }
            PlacementAction::Shed { reason } => {
                fields.push(("action", Json::str("shed")));
                fields.push(("reason", Json::str(reason.name())));
            }
        }
        Json::obj(fields)
    }
}

/// The full run's placement decisions, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct PlacementLog {
    pub records: Vec<PlacementRecord>,
}

impl PlacementLog {
    pub fn push(&mut self, record: PlacementRecord) {
        self.records.push(record);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Canonical serialized form (the determinism witness).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.to_json().write(&mut out);
        out
    }

    /// FNV-1a 64 over the canonical serialization, printed as fixed-width
    /// hex in reports so replay mismatches are one string-compare away.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_json_string().as_bytes()))
    }
}

impl ToJson for PlacementLog {
    fn to_json(&self) -> Json {
        Json::Arr(self.records.iter().map(|r| r.to_json()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> PlacementRecord {
        PlacementRecord {
            seq: 3,
            tenant: 7,
            class: TenantClass::Paying,
            requested: Design::CE_DEFLATE,
            action: PlacementAction::Submitted {
                node: 1,
                design: Design::SOC_DEFLATE,
                level: LadderLevel::Soc,
                job: 42,
            },
        }
    }

    #[test]
    fn record_json_is_stable() {
        let mut out = String::new();
        record().to_json().write(&mut out);
        assert_eq!(
            out,
            r#"{"seq":3,"tenant":7,"class":"paying","requested":"C-Engine_DEFLATE","action":"submitted","node":1,"design":"SoC_DEFLATE","level":"soc","job":42}"#,
            "canonical record serialization drifted"
        );
    }

    #[test]
    fn digest_is_a_pure_function_of_the_records() {
        let mut a = PlacementLog::default();
        let mut b = PlacementLog::default();
        a.push(record());
        b.push(record());
        assert_eq!(a.digest(), b.digest());
        b.push(PlacementRecord {
            action: PlacementAction::Shed { reason: ShedReason::Bucket },
            ..record()
        });
        assert_ne!(a.digest(), b.digest());
    }
}
