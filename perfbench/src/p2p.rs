//! p2p-lz4: two `run_world` ranks. Rank 0 sends each message with the
//! SoC LZ4 design, alternating `PedalComm::send` and `send_streamed`;
//! rank 1 receives, decompresses, checks the bytes and acknowledges.
//! The next message leaves only after the acknowledgement, so one
//! message is in flight (a ping-pong, as in the paper's Fig. 10).

use crate::inputs::Message;
use crate::kernels;
use crate::phase::{check_equal, Deadline, Phase};
use crate::trace::{aggregate, Tracer};
use crate::{Bench, Metric};
use pedal::{Datatype, Design};
use pedal_codesign::{PedalComm, PedalCommConfig, StreamSendConfig};
use pedal_dpu::Platform;
use pedal_mpi::{run_world, Bytes, RankCtx, WorldConfig, STREAM_TAG_BASE, STREAM_TAG_STRIDE};
use std::sync::Arc;
use std::time::Instant;

const CTRL: u64 = 1;
const DATA: u64 = 2;
const ACK: u64 = 3;
/// Control byte that ends the exchange.
const STOP: u8 = 0;
/// Untimed first messages: one per send path.
const WARM_UP: [(usize, Mode); 2] = [(0, Mode::Send), (0, Mode::Streamed)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Send = 1,
    Streamed = 2,
}

pub struct P2p {
    msgs: Arc<Vec<Message>>,
    /// One cycle: every message once per mode, modes alternating.
    pairs: Vec<(usize, Mode)>,
    ratio: Option<f64>,
}

/// What a rank hands back when the world ends.
#[derive(Default)]
struct RankOut {
    tracer: Option<Tracer>,
    /// Rank 0: per message, ns since the epoch when the send started.
    /// Rank 1: ns since the epoch when the bytes were verified.
    stamps: Vec<u64>,
    phase: Phase,
    /// Rank 0: (raw, wire) bytes of the first cycle.
    first_cycle: Option<(u64, u64)>,
}

impl P2p {
    pub fn new(msgs: Vec<Message>) -> Self {
        let pairs = (0..msgs.len())
            .flat_map(|m| {
                let order = if m % 2 == 0 {
                    [Mode::Send, Mode::Streamed]
                } else {
                    [Mode::Streamed, Mode::Send]
                };
                order.map(|mode| (m, mode))
            })
            .collect();
        Self { msgs: Arc::new(msgs), pairs, ratio: None }
    }

    /// Start a two-rank world, warm up both send paths, then (for
    /// `Some(seconds)`) run whole cycles until the time is up.
    fn world(&self, seconds: Option<f64>, t: &Tracer) -> Vec<RankOut> {
        let epoch = t.epoch();
        let traced = t.enabled();
        let msgs = &self.msgs;
        let pairs = &self.pairs;
        run_world(WorldConfig::new(2, Platform::BlueField2), move |ctx| {
            let mut tracer = Tracer::new(epoch, traced, ctx.rank as u32);
            let (mut comm, _) = PedalComm::init(ctx, PedalCommConfig::new(Design::SOC_LZ4))
                .expect("PedalComm init on BlueField-2");
            let mut out = RankOut::default();
            if ctx.rank == 0 {
                let mut sent = 0u64;
                // Warm-up traffic is neither timed nor traced.
                let mut quiet = Tracer::new(epoch, false, 0);
                for (m, mode) in WARM_UP {
                    sender_message(ctx, &mut comm, &mut quiet, msgs, m, mode, sent);
                    sent += 1;
                }
                if let Some(seconds) = seconds {
                    let deadline = Deadline::after(seconds);
                    loop {
                        let start = Phase::start_cycle();
                        let mut bytes = 0u64;
                        let wire_before = comm.stats.wire_bytes_sent;
                        for &(m, mode) in pairs {
                            out.stamps.push(epoch.elapsed().as_nanos() as u64);
                            let ok =
                                sender_message(ctx, &mut comm, &mut tracer, msgs, m, mode, sent);
                            sent += 1;
                            let n = msgs[m].data.len() as u64;
                            out.phase.attempted += 1;
                            if ok {
                                bytes += n;
                            } else {
                                out.phase.failed += 1;
                            }
                        }
                        out.first_cycle
                            .get_or_insert((bytes, comm.stats.wire_bytes_sent - wire_before));
                        out.phase.end_cycle(start, bytes);
                        if deadline.passed() {
                            break;
                        }
                    }
                }
                ctx.send(1, CTRL, Bytes::from(vec![STOP])).expect("stop message");
            } else {
                let mut quiet = Tracer::new(epoch, false, 1);
                for seq in 0.. {
                    let warming = seq < WARM_UP.len() as u64;
                    let tr = if warming { &mut quiet } else { &mut tracer };
                    let Some(stamp) =
                        receiver_message(ctx, &mut comm, tr, msgs, seq, &mut out.phase)
                    else {
                        break;
                    };
                    if !warming {
                        out.stamps.push(stamp);
                    }
                }
            }
            out.tracer = Some(tracer);
            out
        })
    }
}

fn stream_tag(seq: u64) -> u64 {
    STREAM_TAG_BASE + (seq % 1024) * STREAM_TAG_STRIDE
}

/// Rank 0: announce, send and await the acknowledgement of one message.
/// Returns whether rank 1 verified it.
fn sender_message(
    ctx: &mut RankCtx,
    comm: &mut PedalComm,
    t: &mut Tracer,
    msgs: &[Message],
    m: usize,
    mode: Mode,
    seq: u64,
) -> bool {
    let data = &msgs[m].data;
    let n = data.len() as u64;
    t.enter("p2p.message", seq);
    let mut ctrl = vec![mode as u8];
    ctrl.extend_from_slice(&(m as u32).to_le_bytes());
    ctx.send(1, CTRL, Bytes::from(ctrl)).expect("control message");
    t.enter("codesign.send", seq);
    let sent = match mode {
        Mode::Send => comm.send(ctx, 1, DATA, Datatype::Byte, data).map(|_| ()),
        Mode::Streamed => comm
            .send_streamed(ctx, 1, stream_tag(seq), data, StreamSendConfig::default())
            .map(|_| ()),
    };
    t.exit(n);
    if let Err(e) = sent {
        // Rank 1 is already waiting for this message; no way to resume.
        eprintln!("p2p-lz4: rank 0 send failed: {e}");
        std::process::exit(1);
    }
    let (ack, _) = ctx.recv(1, ACK).expect("acknowledgement");
    t.exit(n);
    ack.as_slice() == [1]
}

/// Rank 1: receive, decompress and check one message, then acknowledge.
/// Returns when the bytes were verified (ns since the epoch), or `None`
/// on the stop message.
fn receiver_message(
    ctx: &mut RankCtx,
    comm: &mut PedalComm,
    t: &mut Tracer,
    msgs: &[Message],
    seq: u64,
    phase: &mut Phase,
) -> Option<u64> {
    let (ctrl, _) = ctx.recv(0, CTRL).expect("control message");
    let ctrl = ctrl.as_slice();
    if ctrl == [STOP] {
        return None;
    }
    let m = u32::from_le_bytes(ctrl[1..5].try_into().expect("message index")) as usize;
    let want = &msgs[m].data;
    let n = want.len() as u64;
    t.enter("codesign.recv", seq);
    let got = if ctrl[0] == Mode::Send as u8 {
        comm.recv(ctx, 0, DATA, want.len())
    } else {
        comm.recv_streamed(ctx, 0, stream_tag(seq), want.len())
    };
    t.exit(n);
    let outcome = match got {
        Ok((bytes, _)) => {
            t.span("p2p.verify", seq, n, || check_equal("p2p received bytes", &bytes, want))
        }
        Err(e) => Err(format!("rank 1 receive: {e}")),
    };
    let stamp = t.epoch().elapsed().as_nanos() as u64;
    let ok = outcome.is_ok();
    if let Err(e) = outcome {
        phase.fail(e);
    }
    ctx.send(0, ACK, Bytes::from(vec![ok as u8])).expect("acknowledgement");
    Some(stamp)
}

impl Bench for P2p {
    fn warm(&mut self) -> Result<(), String> {
        let outs = self.world(None, &Tracer::new(Instant::now(), false, 0));
        match outs[1].phase.errors.first() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn run(&mut self, seconds: f64, t: &mut Tracer) -> Phase {
        let mut outs = self.world(Some(seconds), t);
        let rank1 = outs.pop().expect("rank 1");
        let rank0 = outs.pop().expect("rank 0");
        let mut phase = rank0.phase;
        phase.errors = rank1.phase.errors;
        phase.latencies_ms = rank0
            .stamps
            .iter()
            .zip(&rank1.stamps)
            .map(|(&sent, &verified)| verified.saturating_sub(sent) as f64 / 1e6)
            .collect();
        if let Some((raw, wire)) = rank0.first_cycle {
            self.ratio.get_or_insert(raw as f64 / wire.max(1) as f64);
        }
        t.absorb(rank0.tracer.expect("rank 0 tracer"));
        t.absorb(rank1.tracer.expect("rank 1 tracer"));
        phase
    }

    fn ratio(&self) -> f64 {
        self.ratio.expect("ratio is set by the first cycle")
    }

    fn messages(&self) -> &[Message] {
        &self.msgs
    }

    /// `mpi.*` and `codesign.*`: the traced send and receive calls
    /// against direct codec calls on the same messages.
    fn layer_metrics(&mut self, t: &mut Tracer) -> Result<Vec<Metric>, String> {
        for (i, &(m, mode)) in self.pairs.iter().enumerate() {
            let data = &self.msgs[m].data;
            let (req, n) = (i as u64, data.len() as u64);
            let back = match mode {
                Mode::Send => {
                    t.enter("p2p.direct_compress", req);
                    let body = kernels::compress(t, req, Design::SOC_LZ4, Datatype::Byte, data);
                    t.exit(n);
                    t.enter("p2p.direct_decompress", req);
                    let back = kernels::decompress(t, req, Design::SOC_LZ4, &body, data.len());
                    t.exit(n);
                    back
                }
                Mode::Streamed => {
                    t.enter("p2p.direct_compress", req);
                    let (wire, _) = kernels::stream_encode(t, req, data);
                    t.exit(n);
                    t.enter("p2p.direct_decompress", req);
                    let back = kernels::stream_decode(t, req, &wire, data.len());
                    t.exit(n);
                    back
                }
            };
            check_equal("direct codec call", &back?, data)?;
        }
        let agg = aggregate(t.spans());
        let (send, recv) = (agg["codesign.send"], agg["codesign.recv"]);
        let (comp, decomp) = (agg["p2p.direct_compress"], agg["p2p.direct_decompress"]);
        Ok(vec![
            Metric::new("mpi.send_block_ms", send.mean_ms() - comp.mean_ms(), "ms"),
            Metric::new("mpi.recv_wait_ms", recv.mean_ms() - decomp.mean_ms(), "ms"),
            Metric::new("codesign.send_ms", send.mean_ms(), "ms"),
            Metric::new("codesign.recv_ms", recv.mean_ms(), "ms"),
            Metric::new(
                "codesign.overlap",
                (comp.mean_ms() + decomp.mean_ms()) / agg["p2p.message"].mean_ms(),
                "x",
            ),
        ])
    }
}
