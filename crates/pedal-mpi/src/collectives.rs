//! Collective operations built on the point-to-point layer: binomial-tree
//! Broadcast (the paper's Fig. 11 workload), Barrier, Gather, and Reduce.

use crate::comm::{MpiError, RankCtx};
use pedal_dpu::Bytes;
use pedal_dpu::SimInstant;

/// Tag space reserved for collectives (high bit set keeps them clear of
/// user point-to-point tags).
const COLL_TAG_BASE: u64 = 1 << 63;

/// Binomial-tree broadcast from `root`. Returns the payload (every rank)
/// and this rank's virtual completion time.
///
/// The tree matches MPICH's binomial algorithm: in round `k`, ranks whose
/// relative id is below 2^k forward to relative id + 2^k.
pub fn bcast(
    ctx: &mut RankCtx,
    root: usize,
    data: Option<Bytes>,
) -> Result<(Bytes, SimInstant), MpiError> {
    let size = ctx.size;
    let rel = (ctx.rank + size - root) % size;
    let tag = COLL_TAG_BASE | 0x42;

    let mut payload = if ctx.rank == root {
        data.expect("root must supply the broadcast payload")
    } else {
        Bytes::new()
    };

    // Receive phase (non-root): find the round in which we are reached.
    if rel != 0 {
        // Our parent is rel with the highest set bit cleared.
        let highest = usize::BITS - 1 - rel.leading_zeros();
        let parent_rel = rel & !(1usize << highest);
        let parent = (parent_rel + root) % size;
        let (msg, _) = ctx.recv(parent, tag)?;
        payload = msg;
    }

    // Forward phase: send to children in increasing round order.
    let mut k = if rel == 0 { 1usize } else { 1usize << (usize::BITS - rel.leading_zeros()) };
    while rel + k < size {
        if rel < k || rel == 0 {
            let child = (rel + k + root) % size;
            ctx.send(child, tag, payload.clone())?;
        }
        k <<= 1;
    }

    Ok((payload, ctx.now()))
}

/// Barrier: a trivially correct dissemination barrier.
pub fn barrier(ctx: &mut RankCtx) -> Result<SimInstant, MpiError> {
    let size = ctx.size;
    let tag = COLL_TAG_BASE | 0xBA;
    let mut round = 1usize;
    while round < size {
        let to = (ctx.rank + round) % size;
        let from = (ctx.rank + size - round) % size;
        ctx.send(to, tag + round as u64, Bytes::new())?;
        let _ = ctx.recv(from, tag + round as u64)?;
        round <<= 1;
    }
    Ok(ctx.now())
}

/// Gather byte payloads to `root`. Non-root ranks receive an empty vec.
pub fn gather(ctx: &mut RankCtx, root: usize, data: Bytes) -> Result<Vec<Bytes>, MpiError> {
    let tag = COLL_TAG_BASE | 0x6A;
    if ctx.rank == root {
        let mut out: Vec<Bytes> = vec![Bytes::new(); ctx.size];
        out[root] = data;
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                let (msg, _) = ctx.recv(src, tag)?;
                *slot = msg;
            }
        }
        Ok(out)
    } else {
        ctx.send(root, tag, data)?;
        Ok(Vec::new())
    }
}

/// Reduce f64 vectors elementwise with `op` onto `root` via a binomial
/// tree (children fold into parents). Returns Some(result) at root.
pub fn reduce(
    ctx: &mut RankCtx,
    root: usize,
    mut local: Vec<f64>,
    op: fn(f64, f64) -> f64,
) -> Result<Option<Vec<f64>>, MpiError> {
    let size = ctx.size;
    let rel = (ctx.rank + size - root) % size;
    let tag = COLL_TAG_BASE | 0x5E;

    let mut k = 1usize;
    while k < size {
        if rel & k != 0 {
            // Send our partial to the parent and exit.
            let parent = ((rel & !k) + root) % size;
            ctx.send(parent, tag, f64s_to_bytes(&local))?;
            return Ok(None);
        }
        if rel + k < size {
            let child = (rel + k + root) % size;
            let (msg, _) = ctx.recv(child, tag)?;
            let other = bytes_to_f64s(&msg);
            assert_eq!(other.len(), local.len(), "reduce length mismatch");
            for (a, b) in local.iter_mut().zip(other) {
                *a = op(*a, b);
            }
        }
        k <<= 1;
    }
    Ok(Some(local))
}

/// Allreduce = reduce + bcast (MPICH's default for large payloads).
pub fn allreduce(
    ctx: &mut RankCtx,
    local: Vec<f64>,
    op: fn(f64, f64) -> f64,
) -> Result<Vec<f64>, MpiError> {
    let reduced = reduce(ctx, 0, local, op)?;
    let payload = reduced.map(|v| f64s_to_bytes(&v));
    let (bytes, _) = bcast(ctx, 0, payload)?;
    Ok(bytes_to_f64s(&bytes))
}

fn f64s_to_bytes(v: &[f64]) -> Bytes {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(out)
}

fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{run_world, WorldConfig};
    use pedal_dpu::Platform;

    fn world(n: usize) -> WorldConfig {
        WorldConfig::new(n, Platform::BlueField2)
    }

    #[test]
    fn bcast_reaches_every_rank() {
        for size in [1usize, 2, 3, 4, 5, 8, 13] {
            for root in [0, size - 1, size / 2] {
                let results = run_world(world(size), move |ctx| {
                    let data = if ctx.rank == root {
                        Some(Bytes::from(vec![0xCD; 100_000]))
                    } else {
                        None
                    };
                    let (payload, _) = bcast(ctx, root, data).unwrap();
                    payload
                });
                for (rank, payload) in results.iter().enumerate() {
                    assert_eq!(payload.len(), 100_000, "size {size} root {root} rank {rank}");
                    assert!(payload.iter().all(|&b| b == 0xCD));
                }
            }
        }
    }

    #[test]
    fn bcast_four_nodes_has_two_rounds_of_latency() {
        // With 4 nodes the binomial tree is depth 2: the last receiver's
        // completion is ~2 rendezvous transfers, not 3.
        let n = 5_100_000usize;
        let results = run_world(world(4), move |ctx| {
            let data = if ctx.rank == 0 { Some(Bytes::from(vec![7u8; n])) } else { None };
            let (_, done) = bcast(ctx, 0, data).unwrap();
            done.0
        });
        let one_hop = {
            let costs = pedal_dpu::CostModel::for_platform(Platform::BlueField2);
            (costs.network.latency * 2 + costs.network_transfer(n)).as_nanos()
        };
        let slowest = *results.iter().max().unwrap();
        assert!(slowest >= one_hop, "at least one transfer");
        assert!(
            slowest < 3 * one_hop,
            "binomial depth for 4 ranks is 2: {slowest} vs one hop {one_hop}"
        );
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let results = run_world(world(6), |ctx| {
            // Stagger the clocks wildly.
            ctx.compute(pedal_dpu::SimDuration::from_millis(ctx.rank as u64 * 10));
            barrier(ctx).unwrap().0
        });
        let max = *results.iter().max().unwrap();
        for t in &results {
            // All ranks finish the barrier no earlier than the slowest
            // rank's entry time (50 ms).
            assert!(*t >= 50_000_000, "barrier exited early: {t}");
            assert!(*t <= max);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = run_world(world(5), |ctx| {
            let mine = Bytes::from(vec![ctx.rank as u8; ctx.rank + 1]);
            gather(ctx, 2, mine).unwrap()
        });
        let at_root = &results[2];
        assert_eq!(at_root.len(), 5);
        for (rank, payload) in at_root.iter().enumerate() {
            assert_eq!(payload.len(), rank + 1);
            assert!(payload.iter().all(|&b| b == rank as u8));
        }
        assert!(results[0].is_empty());
    }

    #[test]
    fn reduce_sums_correctly() {
        let results = run_world(world(7), |ctx| {
            let local = vec![ctx.rank as f64, 1.0, -(ctx.rank as f64)];
            reduce(ctx, 0, local, |a, b| a + b).unwrap()
        });
        let total: f64 = (0..7).map(|r| r as f64).sum();
        assert_eq!(results[0].as_ref().unwrap(), &vec![total, 7.0, -total]);
        assert!(results[1].is_none());
    }

    #[test]
    fn allreduce_agrees_everywhere() {
        let results = run_world(world(4), |ctx| {
            allreduce(ctx, vec![ctx.rank as f64 + 1.0], |a, b| a * b).unwrap()
        });
        for r in &results {
            assert_eq!(r, &vec![24.0]); // 1*2*3*4
        }
    }
}

/// All-to-all personalized exchange: rank i sends `parts[j]` to rank j and
/// receives one payload from every rank, returned in rank order.
///
/// Uses the classic pairwise-exchange schedule (`partner = rank ^ step` for
/// power-of-two sizes, ring otherwise), which is deadlock-free with
/// blocking rendezvous sends.
pub fn alltoall(ctx: &mut RankCtx, parts: Vec<Bytes>) -> Result<Vec<Bytes>, MpiError> {
    assert_eq!(parts.len(), ctx.size, "alltoall needs size payloads");
    let tag = COLL_TAG_BASE | 0xA2A;
    let size = ctx.size;
    let mut out: Vec<Bytes> = vec![Bytes::new(); size];
    out[ctx.rank] = parts[ctx.rank].clone();
    for step in 1..size {
        // Ring schedule: send to (rank+step), receive from (rank-step).
        let to = (ctx.rank + step) % size;
        let from = (ctx.rank + size - step) % size;
        // Lower rank of a pair sends first only matters for blocking RNDV;
        // isend breaks the cycle regardless of sizes.
        let h = ctx.isend(to, tag + step as u64, parts[to].clone())?;
        let (msg, _) = ctx.recv(from, tag + step as u64)?;
        h.wait(ctx)?;
        out[from] = msg;
    }
    Ok(out)
}

#[cfg(test)]
mod scatter_alltoall_tests {
    use super::*;
    use crate::comm::{run_world, WorldConfig};
    use pedal_dpu::Platform;

    #[test]
    fn alltoall_full_exchange() {
        for size in [1usize, 2, 3, 4, 6, 8] {
            let results = run_world(WorldConfig::new(size, Platform::BlueField3), move |ctx| {
                // parts[j] = [i*16 + j; ...] from rank i to rank j.
                let parts: Vec<Bytes> = (0..size)
                    .map(|j| Bytes::from(vec![(ctx.rank * 16 + j) as u8; 64 + j]))
                    .collect();
                alltoall(ctx, parts).unwrap()
            });
            for (me, got) in results.iter().enumerate() {
                assert_eq!(got.len(), size);
                for (from, payload) in got.iter().enumerate() {
                    assert_eq!(payload.len(), 64 + me, "size {size}: {from}->{me}");
                    assert!(
                        payload.iter().all(|&b| b == (from * 16 + me) as u8),
                        "size {size}: wrong payload {from}->{me}"
                    );
                }
            }
        }
    }

    #[test]
    fn alltoall_with_rendezvous_sized_payloads() {
        // Large payloads force the RNDV path; isend keeps it deadlock-free.
        let results = run_world(WorldConfig::new(4, Platform::BlueField2), |ctx| {
            let parts: Vec<Bytes> = (0..4).map(|j| Bytes::from(vec![j as u8; 1_000_000])).collect();
            alltoall(ctx, parts).unwrap()
        });
        for got in &results {
            for (from, payload) in got.iter().enumerate() {
                let _ = from;
                assert_eq!(payload.len(), 1_000_000);
            }
        }
    }
}
