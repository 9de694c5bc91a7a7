//! Property tests for the computational kernels: numerical invariants
//! and sequential/parallel equivalence.

use bytes::Bytes;
use proptest::prelude::*;
use vdce_afg::KernelKind;
use vdce_runtime::{decode_f64s, encode_f64s, run_kernel, run_kernel_parallel, synth_matrix};

fn payload(values: &[f64]) -> Bytes {
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
