//! The plan-cache key is a hash of the request's own words
//! (`PlanRequest::cache_key`). Admission computes it in its one walk of
//! the frame and the worker from the decoded request; a client can compute
//! it from the request it sends. All three must be the very same `u128`,
//! or a worker that planned a matrix and an I/O thread that later probes
//! for it would disagree and the cache would never hit. Equal keys must
//! mean byte-identical plans, and every word of the request must move
//! the key.

use kpbs::traffic::TickScale;
use kpbs::{Platform, TrafficMatrix};
use proptest::collection::vec;
use proptest::prelude::*;
use redistd::client;
use redistd::wire::{self, Algo, Frame, PlanRequest, Request};

#[derive(Debug, Clone)]
struct Case {
    traffic: TrafficMatrix,
    platform: Platform,
    beta_seconds: f64,
}

impl Case {
    fn request(&self, algo: Algo) -> PlanRequest {
        client::request(7, algo, &self.traffic, &self.platform, self.beta_seconds)
    }

    /// The key admission computes in its walk of the request's frame.
    fn walked(&self, algo: Algo) -> u128 {
        let frame = wire::encode_request(&self.request(algo));
        let Ok(Frame::Plan { body, .. }) = wire::walk_frame(&frame[4..]) else {
            panic!("a client's plan frame walks as a plan");
        };
        body.key
    }
}

/// The schedule bytes the worker caches for `req`: its instance built the
/// way the worker builds it, planned and encoded.
fn planned(req: &PlanRequest) -> Vec<u8> {
    let (inst, _) = req.matrix.to_traffic().to_instance(
        &req.platform.to_platform(),
        req.platform.beta_seconds,
        wire::TICK_SCALE,
    );
    wire::encode_schedule(&kpbs::Algo::from(req.algo).plan(&inst))
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
    fn walk_decode_and_client_keys_agree(case in case_strategy()) {
        for algo in [Algo::Oggp, Algo::Ggp] {
            let req = case.request(algo);
            let frame = wire::encode_request(&req);
            let Ok(Frame::Plan { body, .. }) = wire::walk_frame(&frame[4..]) else {
                panic!("a client's plan frame walks as a plan");
            };
            prop_assert_eq!(body.key, req.cache_key());
            prop_assert_eq!(body.total_bytes, req.matrix.total_bytes());
            let Ok(Request::Plan(decoded)) = wire::decode_frame(&frame[4..]) else {
                panic!("a client's plan frame decodes as a plan");
            };
            prop_assert_eq!(decoded.cache_key(), body.key);
            prop_assert_eq!(body.to_request(7), decoded);
        }
    }

    #[test]
    fn equal_raw_inputs_give_equal_keys_and_identical_plans(case in case_strategy()) {
        // Two independent constructions of one request: the client's, and
        // the one a worker decodes from the frame after a round trip
        // through the dense matrix.
        let a = case.request(Algo::Oggp);
        let rebuilt = Case { traffic: a.matrix.to_traffic(), ..case.clone() };
        let frame = wire::encode_request(&rebuilt.request(Algo::Oggp));
        let Ok(Request::Plan(b)) = wire::decode_frame(&frame[4..]) else {
            panic!("a client's plan frame decodes as a plan");
        };
        prop_assert_eq!(a.cache_key(), b.cache_key());
        prop_assert_eq!(planned(&a), planned(&b));
    }

    #[test]
    fn tag_beta_and_k_move_the_streamed_key(case in case_strategy()) {
        let base = case.walked(Algo::Oggp);
        prop_assert_ne!(base, case.walked(Algo::Ggp));

        let mut later = case.clone();
        later.beta_seconds += 0.0015;
        prop_assert_ne!(base, later.walked(Algo::Oggp));

        // Same NICs, a backbone that admits a different number of
        // simultaneous transfers.
        prop_assume!(case.platform.n1.min(case.platform.n2) >= 2);
        let t = case.platform.transfer_speed();
        let mut narrow = case.clone();
        narrow.platform.backbone = t;
        let mut wide = case.clone();
        wide.platform.backbone = 2.0 * t;
        prop_assert_eq!(narrow.platform.k(), 1);
        prop_assert_eq!(wide.platform.k(), 2);
        prop_assert_ne!(narrow.walked(Algo::Oggp), wide.walked(Algo::Oggp));
    }

    #[test]
    fn one_ulp_of_any_float_moves_the_key(case in case_strategy(), field in 0usize..4) {
        let base = case.walked(Algo::Oggp);
        for step in [f64::next_up, f64::next_down] {
            let mut moved = case.clone();
            let p = &mut moved.platform;
            match field {
                0 => p.t1 = step(p.t1),
                1 => p.t2 = step(p.t2),
                2 => p.backbone = step(p.backbone),
                _ => moved.beta_seconds = step(moved.beta_seconds).max(0.0),
            }
            if field == 3 && moved.beta_seconds == case.beta_seconds {
                continue; // β = 0 has no non-negative value below it.
            }
            prop_assert!(base != moved.walked(Algo::Oggp), "field {}", field);
        }
    }

    #[test]
    fn any_single_cell_moves_the_streamed_key(
        case in case_strategy(),
        pick in (0usize..144, 0usize..144),
    ) {
        let (i, j) = (pick.0 % case.platform.n1, pick.1 % case.platform.n2);
        let base = case.walked(Algo::Oggp);
        let before = case.traffic.get(i, j);

        // One byte more, or (for a present cell) one byte less or none.
        let mut changes = vec![before + 1];
        if before > 0 {
            changes.extend([before - 1, 0]);
        }
        for bytes in changes {
            let mut moved = case.clone();
            moved.traffic.set(i, j, bytes);
            prop_assert!(base != moved.walked(Algo::Oggp), "cell ({}, {}) = {}", i, j, bytes);
        }
    }
}

/// A negative zero β builds the same instance as a positive one, so the
/// two plan alike; the key hashes β's bits and tells them apart. The raw
/// key may split one instance across two cache entries, never merge two.
#[test]
fn negative_zero_beta_gets_its_own_key_and_the_same_plan() {
    let mut traffic = TrafficMatrix::zeros(2, 3);
    traffic.set(0, 1, 4_000_000);
    traffic.set(1, 2, 9_000_000);
    let platform = Platform::new(2, 3, 100.0, 100.0, 200.0);
    let [plus, minus] =
        [0.0, -0.0].map(|beta| client::request(1, Algo::Oggp, &traffic, &platform, beta));
    assert_ne!(plus.cache_key(), minus.cache_key());
    assert_eq!(planned(&plus), planned(&minus));
    assert_eq!(TickScale::MILLIS.to_ticks(-0.0), 0);
}
