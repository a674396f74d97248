//! A scheduled `alltoallv` collective — the paper's concluding goal ("a
//! fully working redistribution library", with the redGRID project) as a
//! library call.
//!
//! Every rank knows the global size matrix (as in `MPI_Alltoallv`), so every
//! rank deterministically computes the *same* OGGP schedule and plays its
//! part: senders slice their buffers along the schedule's preemption points,
//! receivers reassemble, and a barrier separates steps. No coordinator is
//! needed.

use crate::comm::{Comm, Rank};
use bipartite::Graph;
use kpbs::{oggp, Instance, TrafficMatrix};

/// The shared plan both sides derive from the size matrix: per step, the
/// byte ranges each sender transmits / receiver expects.
struct Plan {
    /// `steps[i][sender] = Some((dst, offset, len))`.
    send: Vec<Vec<Option<(usize, usize, usize)>>>,
    /// `steps[i][receiver] = Some((src, len))`.
    recv: Vec<Vec<Option<(usize, usize)>>>,
}

fn plan(sizes: &TrafficMatrix, k: usize) -> Plan {
    let n1 = sizes.senders();
    let n2 = sizes.receivers();
    // Weights are the byte counts themselves: the schedule's preemption
    // points then are byte offsets directly (β = 0: barriers are the only
    // setup cost in-process).
    let mut g = Graph::new(n1, n2);
    let mut endpoints = Vec::new();
    for i in 0..n1 {
        for j in 0..n2 {
            let b = sizes.get(i, j);
            if b > 0 {
                g.add_edge(i, j, b);
                endpoints.push((i, j));
            }
        }
    }
    let inst = Instance::new(g, k.max(1), 0);
    let schedule = oggp(&inst);
    debug_assert!(schedule.validate(&inst).is_ok());

    let mut send = Vec::with_capacity(schedule.num_steps());
    let mut recv = Vec::with_capacity(schedule.num_steps());
    // Track per-edge progress so slices carry their buffer offsets.
    let mut offset = vec![0usize; endpoints.len()];
    for step in &schedule.steps {
        let mut srow: Vec<Option<(usize, usize, usize)>> = vec![None; n1];
        let mut rrow: Vec<Option<(usize, usize)>> = vec![None; n2];
        for t in &step.transfers {
            let idx = t.edge.index();
            let (s, d) = endpoints[idx];
            let len = t.amount as usize;
            debug_assert!(srow[s].is_none() && rrow[d].is_none(), "1-port");
            srow[s] = Some((d, offset[idx], len));
            rrow[d] = Some((s, len));
            offset[idx] += len;
        }
        send.push(srow);
        recv.push(rrow);
    }
    Plan { send, recv }
}

/// Sender-side half of the collective: `data[j]` is the payload for
/// receiver `j` and must be exactly `sizes.get(my_rank, j)` bytes.
///
/// # Panics
///
/// Panics when called from a receiver rank or when a buffer length does not
/// match the size matrix.
pub fn alltoallv_send(comm: &Comm, sizes: &TrafficMatrix, k: usize, data: &[Vec<u8>]) {
    let me = match comm.rank() {
        Rank::Sender(s) => s,
        Rank::Receiver(_) => panic!("alltoallv_send called from a receiver rank"),
    };
    assert_eq!(data.len(), sizes.receivers(), "one buffer per receiver");
    for (j, buf) in data.iter().enumerate() {
        assert_eq!(
            buf.len() as u64,
            sizes.get(me, j),
            "buffer {me}->{j} length mismatch"
        );
    }
    let p = plan(sizes, k);
    for step in &p.send {
        if let Some((dst, off, len)) = step[me] {
            comm.send(dst, data[dst][off..off + len].to_vec());
        }
        comm.barrier();
    }
}

/// Receiver-side half: returns the reassembled payload from each sender
/// (`result[i]` has `sizes.get(i, my_rank)` bytes).
///
/// # Panics
///
/// Panics when called from a sender rank.
pub fn alltoallv_recv(comm: &Comm, sizes: &TrafficMatrix, k: usize) -> Vec<Vec<u8>> {
    let me = match comm.rank() {
        Rank::Receiver(d) => d,
        Rank::Sender(_) => panic!("alltoallv_recv called from a sender rank"),
    };
    let p = plan(sizes, k);
    let mut parts: Vec<Vec<u8>> = (0..sizes.senders())
        .map(|i| Vec::with_capacity(sizes.get(i, me) as usize))
        .collect();
    for step in &p.recv {
        if let Some((src, len)) = step[me] {
            let buf = comm.recv(src);
            assert_eq!(buf.len(), len, "slice {src}->{me} length mismatch");
            parts[src].extend_from_slice(&buf);
        }
        comm.barrier();
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{World, WorldConfig};
    use crate::fabric::FabricConfig;

    fn fast_fabric() -> FabricConfig {
        FabricConfig {
            out_bytes_per_s: 2e9,
            in_bytes_per_s: 2e9,
            backbone_bytes_per_s: 2e9,
            chunk_bytes: 64 * 1024,
        }
    }

    fn payload(src: usize, dst: usize, len: usize) -> Vec<u8> {
        // Position-dependent pattern: catches reassembly-order bugs that a
        // constant fill would miss.
        (0..len).map(|p| (src * 7 + dst * 13 + p) as u8).collect()
    }

    fn run_alltoallv(n1: usize, n2: usize, k: usize, sizes: TrafficMatrix) {
        let world = World::new(WorldConfig {
            senders: n1,
            receivers: n2,
            fabric: fast_fabric(),
        });
        let sizes = &sizes;
        world.run(|comm| match comm.rank() {
            Rank::Sender(s) => {
                let data: Vec<Vec<u8>> = (0..n2)
                    .map(|d| payload(s, d, sizes.get(s, d) as usize))
                    .collect();
                alltoallv_send(comm, sizes, k, &data);
            }
            Rank::Receiver(d) => {
                let got = alltoallv_recv(comm, sizes, k);
                for (s, buf) in got.iter().enumerate() {
                    let want = payload(s, d, sizes.get(s, d) as usize);
                    assert_eq!(buf, &want, "payload {s}->{d} corrupted");
                }
            }
        });
    }

    #[test]
    fn dense_alltoallv_roundtrip() {
        let mut sizes = TrafficMatrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                sizes.set(i, j, 1000 + (i * 4 + j) as u64 * 333);
            }
        }
        run_alltoallv(4, 4, 2, sizes);
    }

    #[test]
    fn sparse_alltoallv_roundtrip() {
        let mut sizes = TrafficMatrix::zeros(5, 3);
        sizes.set(0, 2, 4096);
        sizes.set(3, 0, 1);
        sizes.set(4, 1, 70_000);
        run_alltoallv(5, 3, 2, sizes);
    }

    #[test]
    fn k_one_serialises_but_delivers() {
        let mut sizes = TrafficMatrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                sizes.set(i, j, 2000);
            }
        }
        run_alltoallv(3, 3, 1, sizes);
    }

    #[test]
    fn empty_matrix_no_deadlock() {
        run_alltoallv(2, 2, 1, TrafficMatrix::zeros(2, 2));
    }

    #[test]
    fn preemption_reassembly() {
        // One very large message alongside small ones forces OGGP to
        // preempt; reassembly must restore byte order.
        let mut sizes = TrafficMatrix::zeros(2, 2);
        sizes.set(0, 0, 100_000);
        sizes.set(0, 1, 1_000);
        sizes.set(1, 0, 1_000);
        sizes.set(1, 1, 50_000);
        run_alltoallv(2, 2, 2, sizes);
    }
}
