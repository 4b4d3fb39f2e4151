//! Compressing Send/Recv/Bcast wrappers around the MPI runtime.

use crate::deployment::Deployment;
use pedal::wire::{get_uvarint, put_uvarint};
use pedal::{Datatype, Design, OverheadMode, PedalConfig, PedalContext, PedalError};
use pedal_dpu::{SimDuration, SimInstant};
use pedal_mpi::Bytes;
use pedal_mpi::{bcast, MpiError, RankCtx};

/// Configuration of the co-designed communicator.
#[derive(Debug, Clone, Copy)]
pub struct PedalCommConfig {
    pub design: Design,
    /// Messages at or below this size skip compression (Eager class).
    pub rndv_threshold: usize,
    pub overhead_mode: OverheadMode,
    /// SZ3 error bound.
    pub error_bound: f64,
    /// Where MPI lives relative to the DPU (paper SVI scenario study).
    pub deployment: Deployment,
}

impl PedalCommConfig {
    pub fn new(design: Design) -> Self {
        Self {
            design,
            rndv_threshold: pedal_mpi::DEFAULT_EAGER_THRESHOLD,
            overhead_mode: OverheadMode::Pedal,
            error_bound: 1e-4,
            deployment: Deployment::OnDpu,
        }
    }

    pub fn with_deployment(mut self, d: Deployment) -> Self {
        self.deployment = d;
        self
    }

    pub fn baseline(mut self) -> Self {
        self.overhead_mode = OverheadMode::Baseline;
        self
    }

    pub fn with_rndv_threshold(mut self, t: usize) -> Self {
        self.rndv_threshold = t;
        self
    }

    pub fn with_error_bound(mut self, eb: f64) -> Self {
        self.error_bound = eb;
        self
    }
}

/// Cumulative statistics of a communicator.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommStats {
    pub messages_sent: u64,
    pub messages_received: u64,
    pub raw_bytes_sent: u64,
    pub wire_bytes_sent: u64,
    pub compress_time: SimDuration,
    pub decompress_time: SimDuration,
    /// Messages that skipped compression (Eager class).
    pub eager_passthroughs: u64,
    /// Messages sent through the streamed (compress-while-sending) path.
    pub streamed_messages: u64,
    /// PSF1 frames shipped by streamed sends.
    pub streamed_frames: u64,
}

impl CommStats {
    /// Achieved wire-level compression ratio across all sends.
    pub fn wire_ratio(&self) -> f64 {
        if self.wire_bytes_sent == 0 {
            return 1.0;
        }
        self.raw_bytes_sent as f64 / self.wire_bytes_sent as f64
    }
}

/// Co-design failures.
#[derive(Debug)]
pub enum CommError {
    Mpi(MpiError),
    Pedal(PedalError),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Mpi(e) => write!(f, "mpi: {e}"),
            CommError::Pedal(e) => write!(f, "pedal: {e}"),
        }
    }
}

impl std::error::Error for CommError {}

impl From<MpiError> for CommError {
    fn from(e: MpiError) -> Self {
        CommError::Mpi(e)
    }
}

impl From<PedalError> for CommError {
    fn from(e: PedalError) -> Self {
        CommError::Pedal(e)
    }
}

/// A PEDAL-enabled communicator for one rank.
pub struct PedalComm {
    pub pedal: PedalContext,
    pub cfg: PedalCommConfig,
    pub stats: CommStats,
}

impl PedalComm {
    /// `MPI_Init` + `PEDAL_init`: the paper integrates PEDAL initialization
    /// into the MPI runtime's startup so it never appears on the message
    /// path. Returns the communicator and the one-time init cost.
    pub fn init(mpi: &RankCtx, cfg: PedalCommConfig) -> Result<(Self, SimDuration), CommError> {
        let pcfg = PedalConfig {
            overhead_mode: cfg.overhead_mode,
            error_bound: cfg.error_bound,
            ..PedalConfig::new(mpi.platform, cfg.design)
        };
        let pedal = PedalContext::init(pcfg)?;
        let init_cost = pedal.init_report().total();
        Ok((Self { pedal, cfg, stats: CommStats::default() }, init_cost))
    }

    /// Compressing `MPI_Send`. Large (Rendezvous-class) messages are
    /// compressed with the configured design; Eager-class messages are
    /// framed but not compressed.
    pub fn send(
        &mut self,
        mpi: &mut RankCtx,
        dst: usize,
        tag: u64,
        datatype: Datatype,
        data: &[u8],
    ) -> Result<SimInstant, CommError> {
        self.stats.messages_sent += 1;
        self.stats.raw_bytes_sent += data.len() as u64;
        let payload: Vec<u8> = if data.len() > self.cfg.rndv_threshold {
            let out = self.pedal.compress(datatype, data)?;
            // In the host-offload deployment the raw buffer first crosses
            // PCIe to the DPU; on-DPU deployment adds nothing.
            let phase =
                self.cfg.deployment.sender_phase(&self.pedal.costs, data.len(), out.timing.total());
            self.stats.compress_time += phase;
            // Compression happens on the sender's critical path.
            mpi.compute(phase);
            out.payload
        } else {
            // Eager class: 3-byte header marks "uncompressed" so the
            // receiver's dispatch logic stays uniform.
            self.stats.eager_passthroughs += 1;
            pedal::wire::frame(pedal::PedalHeader::Uncompressed, data.len(), data)
        };
        self.stats.wire_bytes_sent += payload.len() as u64;
        Ok(mpi.send(dst, tag, Bytes::from(payload))?)
    }

    /// Compressing `MPI_Recv` into a caller-sized buffer of `expected_len`
    /// bytes. MPICH posts the receive with a PEDAL-owned buffer; PEDAL
    /// decompresses straight into the user buffer (no extra copy).
    pub fn recv(
        &mut self,
        mpi: &mut RankCtx,
        src: usize,
        tag: u64,
        expected_len: usize,
    ) -> Result<(Vec<u8>, SimInstant), CommError> {
        let (payload, _) = mpi.recv(src, tag)?;
        let out = self.pedal.decompress(&payload, expected_len)?;
        self.stats.messages_received += 1;
        // Host-offload: the decompressed buffer crosses PCIe back to the
        // host MPI process.
        let phase =
            self.cfg.deployment.receiver_phase(&self.pedal.costs, expected_len, out.timing.total());
        self.stats.decompress_time += phase;
        let done = mpi.compute(phase);
        Ok((out.data, done))
    }

    /// Compressing `MPI_Bcast` (paper Fig. 11): the root compresses once,
    /// the binomial tree forwards *compressed* bytes, and every non-root
    /// rank decompresses locally.
    pub fn bcast(
        &mut self,
        mpi: &mut RankCtx,
        root: usize,
        datatype: Datatype,
        data: Option<&[u8]>,
        expected_len: usize,
    ) -> Result<(Vec<u8>, SimInstant), CommError> {
        let payload = if mpi.rank == root {
            let data = data.expect("root must supply broadcast data");
            assert_eq!(data.len(), expected_len);
            let out = self.pedal.compress(datatype, data)?;
            self.stats.compress_time += out.timing.total();
            self.stats.messages_sent += 1;
            self.stats.raw_bytes_sent += data.len() as u64;
            self.stats.wire_bytes_sent += out.payload.len() as u64;
            mpi.compute(out.timing.total());
            Some(Bytes::from(out.payload))
        } else {
            None
        };
        let (wire, _) = bcast(mpi, root, payload)?;
        if mpi.rank == root {
            return Ok((data.unwrap().to_vec(), mpi.now()));
        }
        let out = self.pedal.decompress(&wire, expected_len)?;
        self.stats.messages_received += 1;
        self.stats.decompress_time += out.timing.total();
        let done = mpi.compute(out.timing.total());
        Ok((out.data, done))
    }
}

impl PedalComm {
    /// Compressing `MPI_Gather`: every non-root rank compresses its
    /// contribution before sending; the root decompresses each. Returns
    /// rank-ordered payloads at the root, empty elsewhere.
    #[allow(clippy::needless_range_loop)] // self.recv borrows mpi mutably
    pub fn gather(
        &mut self,
        mpi: &mut RankCtx,
        root: usize,
        datatype: Datatype,
        data: &[u8],
    ) -> Result<Vec<Vec<u8>>, CommError> {
        const TAG: u64 = (1 << 62) | 0x6A11;
        if mpi.rank == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); mpi.size];
            out[root] = data.to_vec();
            for src in 0..mpi.size {
                if src == root {
                    continue;
                }
                // Contribution sizes travel in a tiny eager message first.
                let (szmsg, _) = mpi.recv(src, TAG)?;
                let mut i = 0usize;
                let len = get_uvarint(&szmsg, &mut i)
                    .map_err(|_| CommError::Pedal(PedalError::Codec("gather size".into())))?
                    as usize;
                let (msg, _) = self.recv(mpi, src, TAG + 1, len)?;
                out[src] = msg;
            }
            Ok(out)
        } else {
            let mut szmsg = Vec::new();
            put_uvarint(&mut szmsg, data.len() as u64);
            mpi.send(root, TAG, Bytes::from(szmsg))?;
            self.send(mpi, root, TAG + 1, datatype, data)?;
            Ok(Vec::new())
        }
    }
}
