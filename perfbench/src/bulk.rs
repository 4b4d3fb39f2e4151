//! bulk-bytes and bulk-floats: whole messages through
//! `PedalContext::compress` then `decompress`, one at a time on one
//! thread. A cycle runs every (message, design) pair once.

use crate::inputs::Message;
use crate::kernels::{self, EB};
use crate::phase::{check_bounded, check_equal, Deadline, Phase};
use crate::trace::{aggregate, Tracer};
use crate::{Bench, Metric};
use pedal::{Datatype, Design, PedalConfig, PedalContext};
use pedal_dpu::Platform;
use std::time::Instant;

/// The lossless designs bulk-bytes rotates through.
pub const BYTE_DESIGNS: [Design; 5] =
    [Design::SOC_DEFLATE, Design::CE_DEFLATE, Design::SOC_ZLIB, Design::CE_ZLIB, Design::SOC_LZ4];

/// The designs bulk-floats rotates through.
pub const FLOAT_DESIGNS: [Design; 3] = [Design::SOC_SZ3, Design::CE_SZ3, Design::SOC_PCO];

#[derive(Debug, Clone, Copy)]
pub struct Pair {
    pub msg: usize,
    pub design: Design,
    pub datatype: Datatype,
}

pub struct Bulk {
    msgs: Vec<Message>,
    pairs: Vec<Pair>,
    /// One context per distinct design, created at set-up.
    ctxs: Vec<PedalContext>,
    ratio: Option<f64>,
}

impl Bulk {
    /// Every message with every design in `designs`; float designs see
    /// the bytes as f32 fields.
    pub fn cross(msgs: Vec<Message>, designs: &[Design]) -> Result<Self, String> {
        let pairs = (0..msgs.len())
            .flat_map(|msg| designs.iter().map(move |&design| (msg, design)))
            .map(|(msg, design)| Pair { msg, design, datatype: datatype_for(design) })
            .collect();
        Self::new(msgs, pairs)
    }

    pub fn new(msgs: Vec<Message>, pairs: Vec<Pair>) -> Result<Self, String> {
        let mut designs: Vec<Design> = Vec::new();
        for p in &pairs {
            if !designs.contains(&p.design) {
                designs.push(p.design);
            }
        }
        let ctxs = designs
            .iter()
            .map(|&d| PedalContext::init(PedalConfig::new(Platform::BlueField2, d)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("PEDAL_init: {e}"))?;
        Ok(Self { msgs, pairs, ctxs, ratio: None })
    }

    fn ctx(&self, design: Design) -> &PedalContext {
        self.ctxs.iter().find(|c| c.cfg.design == design).expect("context per design")
    }

    /// One pair: compress, decompress, check. Returns the wire length.
    fn op(&self, i: usize, t: &mut Tracer, phase: &mut Phase) -> Result<usize, String> {
        let p = self.pairs[i];
        let data = &self.msgs[p.msg].data;
        let ctx = self.ctx(p.design);
        let n = data.len() as u64;
        let what = || format!("{} on {}", p.design.name(), self.msgs[p.msg].source);

        t.enter("pedal.compress", i as u64);
        let t0 = Instant::now();
        let packed = ctx.compress(p.datatype, data);
        phase.compress.0 += t0.elapsed().as_secs_f64();
        t.exit(n);
        let packed = packed.map_err(|e| format!("{}: compress: {e}", what()))?;
        phase.compress.1 += n;

        t.enter("pedal.decompress", i as u64);
        let t1 = Instant::now();
        let back = ctx.decompress(&packed.payload, data.len());
        phase.decompress.0 += t1.elapsed().as_secs_f64();
        t.exit(n);
        let back = back.map_err(|e| format!("{}: decompress: {e}", what()))?;
        phase.decompress.1 += n;

        t.span("bulk.verify", i as u64, n, || check(p.design, &what(), &back.data, data))?;
        Ok(packed.payload.len())
    }
}

fn datatype_for(design: Design) -> Datatype {
    match design.algorithm {
        pedal_dpu::Algorithm::Sz3 | pedal_dpu::Algorithm::Pco => Datatype::Float32,
        _ => Datatype::Byte,
    }
}

fn check(design: Design, what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if design.is_lossy() {
        check_bounded(what, got, want, EB)
    } else {
        check_equal(what, got, want)
    }
}

impl Bench for Bulk {
    fn warm(&mut self) -> Result<(), String> {
        // One small message per context: faults in code and pool buffers.
        for p in &self.pairs {
            let data = &self.msgs[p.msg].data;
            let data = &data[..data.len().min(64 * 1024)];
            let ctx = self.ctx(p.design);
            let packed = ctx.compress(p.datatype, data).map_err(|e| e.to_string())?;
            let back = ctx.decompress(&packed.payload, data.len()).map_err(|e| e.to_string())?;
            check(p.design, "warm-up", &back.data, data)?;
        }
        Ok(())
    }

    fn run(&mut self, seconds: f64, t: &mut Tracer) -> Phase {
        let deadline = Deadline::after(seconds);
        let mut phase = Phase::default();
        loop {
            let start = Phase::start_cycle();
            let (mut bytes, mut raw, mut wire) = (0u64, 0u64, 0u64);
            for i in 0..self.pairs.len() {
                let op_start = Instant::now();
                t.enter("bulk.op", i as u64);
                let outcome = self.op(i, t, &mut phase);
                let n = self.msgs[self.pairs[i].msg].data.len() as u64;
                t.exit(n);
                phase.latencies_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
                if let Ok(w) = outcome {
                    bytes += n;
                    raw += n;
                    wire += w as u64;
                }
                phase.record(outcome.map(|_| ()));
            }
            phase.end_cycle(start, bytes);
            self.ratio.get_or_insert(raw as f64 / wire.max(1) as f64);
            if deadline.passed() {
                return phase;
            }
        }
    }

    fn ratio(&self) -> f64 {
        self.ratio.expect("ratio is set by the first cycle")
    }

    fn messages(&self) -> &[Message] {
        &self.msgs
    }

    /// `pedal.*`: the context calls of the traced phase against direct
    /// codec calls on the same pairs.
    fn layer_metrics(&mut self, t: &mut Tracer) -> Result<Vec<Metric>, String> {
        for (i, p) in self.pairs.iter().enumerate() {
            let data = &self.msgs[p.msg].data;
            let req = i as u64;
            t.enter("bulk.direct_compress", req);
            let body = kernels::compress(t, req, p.design, p.datatype, data);
            t.exit(data.len() as u64);
            t.enter("bulk.direct_decompress", req);
            let back = kernels::decompress(t, req, p.design, &body, data.len());
            t.exit(data.len() as u64);
            check(p.design, "direct codec call", &back?, data)?;
        }
        let agg = aggregate(t.spans());
        let overhead = |ctx: &str, direct: &str| agg[ctx].mean_us() - agg[direct].mean_us();
        let (hits, misses) =
            self.ctxs.iter().fold((0, 0), |(h, m), c| (h + c.pool.hits(), m + c.pool.misses()));
        Ok(vec![
            Metric::new(
                "pedal.compress_overhead_us",
                overhead("pedal.compress", "bulk.direct_compress"),
                "us",
            ),
            Metric::new(
                "pedal.decompress_overhead_us",
                overhead("pedal.decompress", "bulk.direct_decompress"),
                "us",
            ),
            Metric::new("pedal.pool_hit_pct", pct(hits, hits + misses), "%"),
        ])
    }
}

pub fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}
