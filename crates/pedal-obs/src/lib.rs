//! # pedal-obs — low-overhead tracing, live metrics, per-stage profiling
//!
//! Observability for the offload pipeline, built on two complementary
//! mechanisms:
//!
//! * **Event journal** (nanolog-style): each lane owns a bounded ring of
//!   fixed-size binary [`Event`]s stamped with virtual [`SimInstant`]s.
//!   Recording is an index bump and a struct store — no locks, no
//!   allocation, no formatting. Naming and export are deferred to
//!   collection time ([`chrome_trace_json`], [`TraceLog`]). Rings drop
//!   *new* events when full and count the loss, so overflow degrades to
//!   a truthful prefix, never corruption.
//! * **Metrics series**: log-bucketed (HDR-style) [`LogHistogram`]s,
//!   rolling windows, a per-tenant [`SloTable`] and a bounded
//!   [`ObsBus`] — the parts a service's completion ledger records into,
//!   so a live mid-run `snapshot()` works without draining. They are
//!   plain single-writer data (`&mut self`); the ledger's one lock
//!   serializes every update.
//!   [`MetricsSnapshot`] is the JSONL form of its named series.
//!
//! Span records are self-contained (begin *and* end in one event), so
//! the exported Chrome `trace_event` JSON is balanced by construction;
//! [`validate_chrome_trace`] proves it for the verify gate. The crate
//! also hosts the workspace's offline-friendly JSON layer ([`Json`],
//! [`ToJson`]) standing in for `serde`, which is unavailable in this
//! no-external-deps build.
//!
//! [`SimInstant`]: pedal_dpu::SimInstant

pub mod bus;
pub mod event;
pub mod hist;
pub mod json;
pub mod prom;
pub mod registry;
pub mod ring;
pub mod slo;
pub mod stats;
pub mod trace;
pub mod window;

pub use bus::{BusSubscription, FrameKind, MetricsFrame, ObsBus};
pub use event::{Event, EventKind, SpanKind};
pub use hist::LogHistogram;
pub use json::{parse as parse_json, Json, JsonError, ToJson};
pub use prom::{counters_monotone, validate_exposition, PromCheck, PromWriter};
pub use registry::{HistSummary, MetricsSnapshot, METRICS_SCHEMA};
pub use ring::{EventRing, LaneRecorder, Track, DEFAULT_RING_CAPACITY};
pub use slo::{SloTable, TenantId, TenantSloSnapshot};
pub use stats::percentile;
pub use trace::{
    chrome_trace_json, validate_chrome_trace, Collector, TraceCheck, TraceLog, TraceValidateError,
};
pub use window::{WindowConfig, WindowedCounter, WindowedHistogram};
