//! Residual traffic extraction — the re-planning primitive of fault-aware
//! execution.
//!
//! A runtime that drives a [`Schedule`](crate::Schedule) to completion over
//! an unreliable medium needs to answer "what is left to move?" whenever a
//! transfer fails permanently or a node drops out mid-schedule. The answer
//! is a *residual* traffic matrix: the original demand minus the bytes
//! already delivered, restricted to the nodes still alive. Re-planning that
//! residual through GGP/OGGP yields a fresh schedule whose steps can be
//! spliced into the running one (the discipline of Marchal et al.'s
//! dynamic redistribution and of residual-demand coflow rescheduling).
//!
//! The functions here are pure matrix arithmetic, kept in `kpbs` so every
//! consumer (the `redistexec` runtime, [`crate::delta`]) shares one
//! definition of "residual".

use crate::traffic::TrafficMatrix;

/// The bytes of `original` not yet covered by `delivered`, cell by cell
/// (saturating: over-delivery clamps to zero rather than underflowing).
///
/// # Panics
///
/// Panics if the two matrices have different dimensions.
pub fn residual_matrix(original: &TrafficMatrix, delivered: &TrafficMatrix) -> TrafficMatrix {
    assert_eq!(original.senders(), delivered.senders(), "sender mismatch");
    assert_eq!(
        original.receivers(),
        delivered.receivers(),
        "receiver mismatch"
    );
    let mut out = TrafficMatrix::zeros(original.senders(), original.receivers());
    for i in 0..original.senders() {
        for j in 0..original.receivers() {
            out.set(i, j, original.get(i, j).saturating_sub(delivered.get(i, j)));
        }
    }
    out
}

/// A copy of `m` with every row of a dead sender and every column of a dead
/// receiver zeroed: the demand that can still be served. `senders_alive[i]`
/// / `receivers_alive[j]` flag the surviving nodes.
///
/// # Panics
///
/// Panics if the liveness slices do not match the matrix dimensions.
pub fn restrict_matrix(
    m: &TrafficMatrix,
    senders_alive: &[bool],
    receivers_alive: &[bool],
) -> TrafficMatrix {
    assert_eq!(senders_alive.len(), m.senders(), "sender flag mismatch");
    assert_eq!(
        receivers_alive.len(),
        m.receivers(),
        "receiver flag mismatch"
    );
    let mut out = TrafficMatrix::zeros(m.senders(), m.receivers());
    for (i, &sender_ok) in senders_alive.iter().enumerate() {
        if !sender_ok {
            continue;
        }
        for (j, &receiver_ok) in receivers_alive.iter().enumerate() {
            if receiver_ok {
                out.set(i, j, m.get(i, j));
            }
        }
    }
    out
}

/// [`residual_matrix`] restricted to surviving nodes in one pass — the
/// exact matrix a fault-tolerant runtime re-plans after a failure.
pub fn surviving_residual(
    original: &TrafficMatrix,
    delivered: &TrafficMatrix,
    senders_alive: &[bool],
    receivers_alive: &[bool],
) -> TrafficMatrix {
    restrict_matrix(
        &residual_matrix(original, delivered),
        senders_alive,
        receivers_alive,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n1: usize, n2: usize, cells: &[(usize, usize, u64)]) -> TrafficMatrix {
        let mut m = TrafficMatrix::zeros(n1, n2);
        for &(i, j, b) in cells {
            m.set(i, j, b);
        }
        m
    }

    #[test]
    fn residual_subtracts_per_cell() {
        let orig = matrix(2, 2, &[(0, 0, 10), (0, 1, 5), (1, 1, 7)]);
        let done = matrix(2, 2, &[(0, 0, 4), (1, 1, 7)]);
        let r = residual_matrix(&orig, &done);
        assert_eq!(r.get(0, 0), 6);
        assert_eq!(r.get(0, 1), 5);
        assert_eq!(r.get(1, 1), 0);
        assert_eq!(r.total_bytes(), 11);
    }

    #[test]
    fn residual_saturates_on_overdelivery() {
        let orig = matrix(1, 1, &[(0, 0, 3)]);
        let done = matrix(1, 1, &[(0, 0, 5)]);
        assert_eq!(residual_matrix(&orig, &done).get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "sender mismatch")]
    fn residual_rejects_dimension_mismatch() {
        residual_matrix(&TrafficMatrix::zeros(2, 2), &TrafficMatrix::zeros(3, 2));
    }

    #[test]
    fn restrict_zeroes_dead_rows_and_columns() {
        let m = matrix(2, 3, &[(0, 0, 1), (0, 2, 2), (1, 0, 3), (1, 1, 4)]);
        let r = restrict_matrix(&m, &[true, false], &[true, true, false]);
        assert_eq!(r.get(0, 0), 1);
        assert_eq!(r.get(0, 2), 0, "dead receiver column zeroed");
        assert_eq!(r.get(1, 0), 0, "dead sender row zeroed");
        assert_eq!(r.get(1, 1), 0);
        assert_eq!(r.total_bytes(), 1);
    }

    #[test]
    fn surviving_residual_composes() {
        let orig = matrix(2, 2, &[(0, 0, 10), (0, 1, 6), (1, 0, 8)]);
        let done = matrix(2, 2, &[(0, 0, 10), (0, 1, 2)]);
        let r = surviving_residual(&orig, &done, &[true, false], &[true, true]);
        assert_eq!(r.get(0, 0), 0);
        assert_eq!(r.get(0, 1), 4);
        assert_eq!(r.get(1, 0), 0, "dead sender's backlog excluded");
    }

    #[test]
    fn all_dead_means_empty_residual() {
        let orig = matrix(2, 2, &[(0, 0, 10)]);
        let done = TrafficMatrix::zeros(2, 2);
        let r = surviving_residual(&orig, &done, &[false, false], &[false, false]);
        assert_eq!(r.total_bytes(), 0);
    }
}
