//! The admission-time plan-cache key, streamed from a decoded
//! [`CsrMatrix`], must be the very `u128` the canonical construction
//! `kpbs::cache_key(&traffic.to_instance(..).0, tag)` produces — otherwise
//! a worker that planned a matrix and an I/O thread that later probes for
//! it would disagree and the cache would never hit. These properties also
//! hand the new entry point the guarantees `kpbs/tests/fingerprint.rs`
//! pins for the instance-based key: every field the planners read moves it.

use kpbs::traffic::TickScale;
use kpbs::{Platform, TrafficMatrix};
use proptest::collection::vec;
use proptest::prelude::*;
use redistd::client;
use redistd::wire::{self, Algo, CsrMatrix, Frame, Request};

const SCALE: TickScale = TickScale::MILLIS;

#[derive(Debug, Clone)]
struct Case {
    traffic: TrafficMatrix,
    platform: Platform,
    beta_seconds: f64,
}

impl Case {
    fn streamed(&self, algo: Algo) -> u128 {
        CsrMatrix::from_traffic(&self.traffic).cache_key(
            &self.platform,
            self.beta_seconds,
            SCALE,
            algo as u64,
        )
    }

    fn canonical(&self, algo: Algo) -> u128 {
        let (inst, _) = self
            .traffic
            .to_instance(&self.platform, self.beta_seconds, SCALE);
        kpbs::cache_key(&inst, algo as u64)
    }
}

/// Random shape, density (cells drawn with replacement, so anything from
/// empty to nearly full), byte sizes from 1 B to 100 MB, NIC and backbone
/// speeds spanning k = 1 to k = min(n1, n2), and β from 0 to 200 ms.
fn case_strategy() -> impl Strategy<Value = Case> {
    (1usize..=12, 1usize..=12)
        .prop_flat_map(|(n1, n2)| {
            let cells = vec((0..n1, 0..n2, 1u64..=1000, 0u32..=5), 0..=n1 * n2);
            let speeds = (0.5f64..=1000.0, 0.5f64..=1000.0, 1.0f64..=5000.0);
            (Just((n1, n2)), cells, speeds, 0.0f64..=0.2)
        })
        .prop_map(|((n1, n2), cells, (t1, t2, backbone), beta_seconds)| {
            let mut traffic = TrafficMatrix::zeros(n1, n2);
            for (i, j, mantissa, exponent) in cells {
                traffic.set(i, j, mantissa * 10u64.pow(exponent));
            }
            Case {
                traffic,
                platform: Platform::new(n1, n2, t1, t2, backbone),
                beta_seconds,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn streamed_key_equals_the_instance_key(case in case_strategy()) {
        for algo in [Algo::Oggp, Algo::Ggp] {
            prop_assert_eq!(case.streamed(algo), case.canonical(algo));
            // The server's own entry points: the request a client builds,
            // and the key admission computes in its one walk of the frame
            // — equal to the decoded request's.
            let req = client::request(7, algo, &case.traffic, &case.platform, case.beta_seconds);
            prop_assert_eq!(req.cache_key(), case.canonical(algo));
            let frame = wire::encode_request(&req);
            let Ok(Frame::Plan { body, .. }) = wire::walk_frame(&frame[4..]) else {
                panic!("a client's plan frame walks as a plan");
            };
            prop_assert_eq!(body.key, case.canonical(algo));
            prop_assert_eq!(body.total_bytes, req.matrix.total_bytes());
            let Ok(Request::Plan(decoded)) = wire::decode_frame(&frame[4..]) else {
                panic!("a client's plan frame decodes as a plan");
            };
            prop_assert_eq!(decoded.cache_key(), body.key);
            prop_assert_eq!(body.to_request(7), decoded);
        }
    }

    #[test]
    fn tag_beta_and_k_move_the_streamed_key(case in case_strategy()) {
        let base = case.streamed(Algo::Oggp);
        prop_assert_ne!(base, case.streamed(Algo::Ggp));

        // 1.5 ms more setup delay is at least one more β tick.
        let mut later = case.clone();
        later.beta_seconds += 0.0015;
        prop_assert_ne!(base, later.streamed(Algo::Oggp));

        // Same NICs (so the same per-cell ticks), a backbone that admits a
        // different number of simultaneous transfers.
        prop_assume!(case.platform.n1.min(case.platform.n2) >= 2);
        let t = case.platform.transfer_speed();
        let mut narrow = case.clone();
        narrow.platform.backbone = t;
        let mut wide = case.clone();
        wide.platform.backbone = 2.0 * t;
        prop_assert_eq!(narrow.platform.k(), 1);
        prop_assert_eq!(wide.platform.k(), 2);
        prop_assert_ne!(narrow.streamed(Algo::Oggp), wide.streamed(Algo::Oggp));
    }

    #[test]
    fn any_single_cell_moves_the_streamed_key(
        case in case_strategy(),
        pick in (0usize..144, 0usize..144),
    ) {
        let (i, j) = (pick.0 % case.platform.n1, pick.1 % case.platform.n2);
        let base = case.streamed(Algo::Oggp);
        let before = case.traffic.get(i, j);

        // 1 MB more is at least 8 ms at ≤ 1000 Mbit/s: the cell's ticks
        // change (or the cell appears).
        let mut grown = case.clone();
        grown.traffic.set(i, j, before + 1_000_000);
        prop_assert_ne!(base, grown.streamed(Algo::Oggp));

        // Clearing a present cell removes an edge.
        if before > 0 {
            let mut cleared = case.clone();
            cleared.traffic.set(i, j, 0);
            prop_assert_ne!(base, cleared.streamed(Algo::Oggp));
        }
    }
}
