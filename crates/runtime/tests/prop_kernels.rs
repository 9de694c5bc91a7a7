//! Property tests for the computational kernels: numerical invariants
//! and sequential/parallel equivalence.

use proptest::prelude::*;
use std::sync::Arc;
use vdce_afg::KernelKind;
use vdce_runtime::{
    decode_f64s, encode_f64s, run_kernel, run_kernel_parallel, synth_matrix, synth_values,
};

fn payload(values: &[f64]) -> Arc<[u8]> {
    encode_f64s(values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sort_is_a_sorted_permutation(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..2000),
        nodes in 1u32..6,
    ) {
        let out = run_kernel_parallel(KernelKind::Sort, xs.len() as u64, &[payload(&xs)], nodes)
            .unwrap();
        let sorted = decode_f64s(&out[0]);
        prop_assert_eq!(sorted.len(), xs.len());
        for w in sorted.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Permutation: equal multisets (compare after stable sort on bits).
        let mut a: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
        let mut b: Vec<u64> = sorted.iter().map(|v| v.to_bits()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reduce_matches_kahan_free_sum(
        xs in proptest::collection::vec(-1e3f64..1e3, 0..2000),
        nodes in 1u32..6,
    ) {
        let out = run_kernel_parallel(KernelKind::Reduce, xs.len() as u64, &[payload(&xs)], nodes)
            .unwrap();
        let got = decode_f64s(&out[0])[0];
        let want: f64 = xs.iter().sum();
        prop_assert!((got - want).abs() <= 1e-6 * (1.0 + want.abs()));
    }

    #[test]
    fn map_parallel_equals_sequential(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..3000),
        nodes in 2u32..8,
    ) {
        let seq = run_kernel(KernelKind::Map, xs.len() as u64, &[payload(&xs)]).unwrap();
        let par =
            run_kernel_parallel(KernelKind::Map, xs.len() as u64, &[payload(&xs)], nodes).unwrap();
        prop_assert_eq!(decode_f64s(&seq[0]), decode_f64s(&par[0]));
    }

    #[test]
    fn lu_reconstructs_random_diag_dominant_matrices(
        seed in any::<u64>(),
        n in 1usize..12,
    ) {
        let a = synth_matrix(seed, n);
        let out = run_kernel(KernelKind::LuDecomposition, n as u64, &[payload(&a)]).unwrap();
        let l = decode_f64s(&out[0]);
        let u = decode_f64s(&out[1]);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += l[i * n + k] * u[k * n + j];
                }
                prop_assert!(
                    (s - a[i * n + j]).abs() < 1e-7 * (1.0 + a[i * n + j].abs()),
                    "L·U differs from A at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matmul_is_linear_in_first_argument(
        seed in any::<u64>(),
        n in 1usize..10,
        alpha in -4.0f64..4.0,
    ) {
        let a = synth_matrix(seed, n);
        let b = synth_matrix(seed ^ 1, n);
        let scaled: Vec<f64> = a.iter().map(|v| alpha * v).collect();
        let c1 = decode_f64s(
            &run_kernel(KernelKind::MatrixMultiply, n as u64, &[payload(&scaled), payload(&b)])
                .unwrap()[0],
        );
        let c0 = decode_f64s(
            &run_kernel(KernelKind::MatrixMultiply, n as u64, &[payload(&a), payload(&b)])
                .unwrap()[0],
        );
        for (x, y) in c1.iter().zip(c0.iter()) {
            prop_assert!((x - alpha * y).abs() < 1e-6 * (1.0 + y.abs() * alpha.abs()));
        }
    }

    #[test]
    fn fft_preserves_energy(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..65)
            .prop_filter("power of two", |v| v.len().is_power_of_two()),
    ) {
        // Parseval: Σ|X_k|² = N · Σ|x_n|² for the unnormalised DFT.
        let out = run_kernel(KernelKind::Fft, xs.len() as u64, &[payload(&xs)]).unwrap();
        let mags = decode_f64s(&out[0]);
        let freq_energy: f64 = mags.iter().map(|m| m * m).sum();
        let time_energy: f64 = xs.iter().map(|v| v * v).sum();
        let n = xs.len() as f64;
        prop_assert!(
            (freq_energy - n * time_energy).abs() <= 1e-6 * (1.0 + n * time_energy),
            "Parseval violated: {freq_energy} vs {}",
            n * time_energy
        );
    }

    #[test]
    fn threat_scores_stay_in_unit_interval(
        xs in proptest::collection::vec(-10.0f64..10.0, 0..500),
    ) {
        let out =
            run_kernel(KernelKind::ThreatAssessment, xs.len() as u64, &[payload(&xs)]).unwrap();
        for s in decode_f64s(&out[0]) {
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn command_dispatch_filters_monotonically(
        xs in proptest::collection::vec(0.0f64..1.0, 0..500),
    ) {
        let out =
            run_kernel(KernelKind::CommandDispatch, xs.len() as u64, &[payload(&xs)]).unwrap();
        let orders = decode_f64s(&out[0]);
        prop_assert_eq!(orders.len(), xs.iter().filter(|v| **v > 0.5).count());
        prop_assert!(orders.iter().all(|v| *v > 0.5));
    }

    #[test]
    fn encode_decode_identity(xs in proptest::collection::vec(any::<f64>(), 0..1000)) {
        let back = decode_f64s(&encode_f64s(&xs));
        prop_assert_eq!(back.len(), xs.len());
        for (a, b) in back.iter().zip(xs.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// FNV-1a (64-bit) of `run_kernel_parallel`'s output bytes at
/// `nodes` = 1, 2, 3 and 4, one row per kernel and problem size. The
/// element-wise kernels run serially below 1,024 elements and matmul
/// below 32 rows; past that the chunk boundaries (`len.div_ceil(nodes)`)
/// decide which worker computes what, and `Reduce`'s bits, since it sums
/// per chunk. Sizes 1023–1025 and orders 31–33 straddle the cutoffs.
#[rustfmt::skip]
const KERNEL_DIGESTS: &[(KernelKind, u64, [u64; 4])] = &[
    (KernelKind::Map, 0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    (KernelKind::Map, 1, [0x84158ed48e3c4506, 0x84158ed48e3c4506, 0x84158ed48e3c4506, 0x84158ed48e3c4506]),
    (KernelKind::Map, 1023, [0x1ca482dccc9b5ae9, 0x1ca482dccc9b5ae9, 0x1ca482dccc9b5ae9, 0x1ca482dccc9b5ae9]),
    (KernelKind::Map, 1024, [0xf20d25f63a362b96, 0xf20d25f63a362b96, 0xf20d25f63a362b96, 0xf20d25f63a362b96]),
    (KernelKind::Map, 1025, [0x0cd7d7cfd91098ad, 0x0cd7d7cfd91098ad, 0x0cd7d7cfd91098ad, 0x0cd7d7cfd91098ad]),
    (KernelKind::Map, 4099, [0xdf79a8d882101b04, 0xdf79a8d882101b04, 0xdf79a8d882101b04, 0xdf79a8d882101b04]),
    (KernelKind::Reduce, 0, [0xa8c7783228196045, 0xa8c7783228196045, 0xa8c7783228196045, 0xa8c7783228196045]),
    (KernelKind::Reduce, 1, [0x6f2b8cdbd26ebc57, 0x6f2b8cdbd26ebc57, 0x6f2b8cdbd26ebc57, 0x6f2b8cdbd26ebc57]),
    (KernelKind::Reduce, 1023, [0x4642597ce6008e87, 0x4642597ce6008e87, 0x4642597ce6008e87, 0x4642597ce6008e87]),
    (KernelKind::Reduce, 1024, [0x10923b7d4035ba44, 0xddc9f9a75c38cf4f, 0xddc9f9a75c38cf4f, 0x10923b7d4035ba44]),
    (KernelKind::Reduce, 1025, [0x1a24dd251779bd45, 0xc793042b2e6d9387, 0x1a24dd251779bd45, 0x1a24dd251779bd45]),
    (KernelKind::Reduce, 4099, [0x5342c4c07dc0409f, 0x01759a355aa7687a, 0xb5f33b83a04b1208, 0xa7e6aa4c2aa97234]),
    (KernelKind::Sort, 0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    (KernelKind::Sort, 1, [0x6f2b8cdbd26ebc57, 0x6f2b8cdbd26ebc57, 0x6f2b8cdbd26ebc57, 0x6f2b8cdbd26ebc57]),
    (KernelKind::Sort, 1023, [0x382cdfe4e9741149, 0x382cdfe4e9741149, 0x382cdfe4e9741149, 0x382cdfe4e9741149]),
    (KernelKind::Sort, 1024, [0xf9a8aa746aeabde5, 0xf9a8aa746aeabde5, 0xf9a8aa746aeabde5, 0xf9a8aa746aeabde5]),
    (KernelKind::Sort, 1025, [0x98445bc7ebb271dd, 0x98445bc7ebb271dd, 0x98445bc7ebb271dd, 0x98445bc7ebb271dd]),
    (KernelKind::Sort, 4099, [0x47fbf280f8ac40d1, 0x47fbf280f8ac40d1, 0x47fbf280f8ac40d1, 0x47fbf280f8ac40d1]),
    (KernelKind::FirFilter, 0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    (KernelKind::FirFilter, 1, [0x6ebf0cdbd212c3f7, 0x6ebf0cdbd212c3f7, 0x6ebf0cdbd212c3f7, 0x6ebf0cdbd212c3f7]),
    (KernelKind::FirFilter, 1023, [0x2c61f5896e0d440d, 0x2c61f5896e0d440d, 0x2c61f5896e0d440d, 0x2c61f5896e0d440d]),
    (KernelKind::FirFilter, 1024, [0xaeac57e3c9a8f832, 0xaeac57e3c9a8f832, 0xaeac57e3c9a8f832, 0xaeac57e3c9a8f832]),
    (KernelKind::FirFilter, 1025, [0x9969ddf57addc509, 0x9969ddf57addc509, 0x9969ddf57addc509, 0x9969ddf57addc509]),
    (KernelKind::FirFilter, 4099, [0x49d90fe04b8ac148, 0x49d90fe04b8ac148, 0x49d90fe04b8ac148, 0x49d90fe04b8ac148]),
    (KernelKind::Convolution, 0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    (KernelKind::Convolution, 1, [0x4a56872da809b204, 0x4a56872da809b204, 0x4a56872da809b204, 0x4a56872da809b204]),
    (KernelKind::Convolution, 1023, [0x98c1f37f51a4a7b9, 0x98c1f37f51a4a7b9, 0x98c1f37f51a4a7b9, 0x98c1f37f51a4a7b9]),
    (KernelKind::Convolution, 1024, [0xadaaec6ee8109c40, 0xadaaec6ee8109c40, 0xadaaec6ee8109c40, 0xadaaec6ee8109c40]),
    (KernelKind::Convolution, 1025, [0x0ec8c7a3080947a4, 0x0ec8c7a3080947a4, 0x0ec8c7a3080947a4, 0x0ec8c7a3080947a4]),
    (KernelKind::Convolution, 4099, [0x1d1709ddc5773e4e, 0x1d1709ddc5773e4e, 0x1d1709ddc5773e4e, 0x1d1709ddc5773e4e]),
    (KernelKind::TrackCorrelation, 0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    (KernelKind::TrackCorrelation, 1, [0x40a9aff84cdbb069, 0x40a9aff84cdbb069, 0x40a9aff84cdbb069, 0x40a9aff84cdbb069]),
    (KernelKind::TrackCorrelation, 1023, [0x867d5f10e6f5b976, 0x867d5f10e6f5b976, 0x867d5f10e6f5b976, 0x867d5f10e6f5b976]),
    (KernelKind::TrackCorrelation, 1024, [0x1a06677c430ce563, 0x1a06677c430ce563, 0x1a06677c430ce563, 0x1a06677c430ce563]),
    (KernelKind::TrackCorrelation, 1025, [0xf95102ade3708ac5, 0xf95102ade3708ac5, 0xf95102ade3708ac5, 0xf95102ade3708ac5]),
    (KernelKind::TrackCorrelation, 4099, [0x6903900bd241a467, 0x6903900bd241a467, 0x6903900bd241a467, 0x6903900bd241a467]),
    (KernelKind::ThreatAssessment, 0, [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    (KernelKind::ThreatAssessment, 1, [0x3a5b14dc43b8db09, 0x3a5b14dc43b8db09, 0x3a5b14dc43b8db09, 0x3a5b14dc43b8db09]),
    (KernelKind::ThreatAssessment, 1023, [0xaec2a9bed9365763, 0xaec2a9bed9365763, 0xaec2a9bed9365763, 0xaec2a9bed9365763]),
    (KernelKind::ThreatAssessment, 1024, [0x55a3b9dd5ca00e71, 0x55a3b9dd5ca00e71, 0x55a3b9dd5ca00e71, 0x55a3b9dd5ca00e71]),
    (KernelKind::ThreatAssessment, 1025, [0xe7f85057f8134b55, 0xe7f85057f8134b55, 0xe7f85057f8134b55, 0xe7f85057f8134b55]),
    (KernelKind::ThreatAssessment, 4099, [0x065e51f6f01226f0, 0x065e51f6f01226f0, 0x065e51f6f01226f0, 0x065e51f6f01226f0]),
    (KernelKind::MatrixAdd, 1, [0x0f721c1288138e87, 0x0f721c1288138e87, 0x0f721c1288138e87, 0x0f721c1288138e87]),
    (KernelKind::MatrixAdd, 31, [0x03e52cf9b014c1e7, 0x03e52cf9b014c1e7, 0x03e52cf9b014c1e7, 0x03e52cf9b014c1e7]),
    (KernelKind::MatrixAdd, 32, [0x48458ac868fe8d1c, 0x48458ac868fe8d1c, 0x48458ac868fe8d1c, 0x48458ac868fe8d1c]),
    (KernelKind::MatrixAdd, 33, [0x42efa1eeb515209e, 0x42efa1eeb515209e, 0x42efa1eeb515209e, 0x42efa1eeb515209e]),
    (KernelKind::MatrixAdd, 64, [0xa178484776f35f82, 0xa178484776f35f82, 0xa178484776f35f82, 0xa178484776f35f82]),
    (KernelKind::MatrixMultiply, 1, [0x4a56872da809b204, 0x4a56872da809b204, 0x4a56872da809b204, 0x4a56872da809b204]),
    (KernelKind::MatrixMultiply, 31, [0x2056491622de60e7, 0x2056491622de60e7, 0x2056491622de60e7, 0x2056491622de60e7]),
    (KernelKind::MatrixMultiply, 32, [0x7008d0657d4eba49, 0x7008d0657d4eba49, 0x7008d0657d4eba49, 0x7008d0657d4eba49]),
    (KernelKind::MatrixMultiply, 33, [0xf83f1a9258153623, 0xf83f1a9258153623, 0xf83f1a9258153623, 0xf83f1a9258153623]),
    (KernelKind::MatrixMultiply, 64, [0x727724a9e15f3690, 0x727724a9e15f3690, 0x727724a9e15f3690, 0x727724a9e15f3690]),
];

#[test]
fn parallel_kernel_outputs_are_pinned() {
    let mut got = Vec::new();
    for &kind in &[
        KernelKind::Map,
        KernelKind::Reduce,
        KernelKind::Sort,
        KernelKind::FirFilter,
        KernelKind::Convolution,
        KernelKind::TrackCorrelation,
        KernelKind::ThreatAssessment,
        KernelKind::MatrixAdd,
        KernelKind::MatrixMultiply,
    ] {
        let matrix = matches!(kind, KernelKind::MatrixAdd | KernelKind::MatrixMultiply);
        let sizes: &[u64] =
            if matrix { &[1, 31, 32, 33, 64] } else { &[0, 1, 1023, 1024, 1025, 4099] };
        for &size in sizes {
            let len = if matrix { size * size } else { size } as usize;
            let inputs = [payload(&synth_values(size, len)), payload(&synth_values(size ^ 1, len))];
            let digests = [1, 2, 3, 4].map(|nodes| {
                let out = run_kernel_parallel(kind, size, &inputs, nodes).unwrap();
                out.iter().flat_map(|p| p.iter()).fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                })
            });
            got.push((kind, size, digests));
        }
    }
    assert_eq!(got, KERNEL_DIGESTS);
}
