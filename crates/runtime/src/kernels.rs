//! Real computational kernels for every library task.
//!
//! In the paper, the task-constraints database stores "the absolute path
//! of the task executable for each host" and the Data Managers start
//! those executables. This reproduction replaces the executables with
//! in-process kernels (DESIGN.md §3): every [`KernelKind`] has a real
//! implementation that consumes input payloads, computes, and produces
//! output payloads — so tasks genuinely take time proportional to their
//! computation size and measured runtimes can flow back into the
//! task-performance database exactly as §4.1 describes.
//!
//! **Payload format**: a payload is a flat sequence of little-endian
//! `f64`s ([`encode_f64s`]/[`decode_f64s`]). Matrix payloads are row-major
//! `n × n` where `n` is the task's problem size; vector payloads have
//! length `n`.
//!
//! **Parallel execution**: [`run_kernel_parallel`] splits data-parallel
//! kernels across `nodes` worker threads (standing in for the machines of
//! a parallel placement); kernels without a profitable split fall back to
//! the sequential path.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use vdce_afg::KernelKind;

/// Kernel execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A required input port received no payload.
    MissingInput {
        /// The port index.
        port: usize,
    },
    /// An input payload has the wrong shape for the problem size.
    BadInput {
        /// The port index.
        port: usize,
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        actual: usize,
    },
    /// Numerical failure (e.g. zero pivot in LU without pivoting).
    Numerical(&'static str),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::MissingInput { port } => write!(f, "missing input on port {port}"),
            KernelError::BadInput { port, expected, actual } => {
                write!(f, "input {port}: expected {expected} elements, got {actual}")
            }
            KernelError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Encode a slice of `f64` as a little-endian payload.
pub fn encode_f64s(values: &[f64]) -> Arc<[u8]> {
    let mut v = Vec::with_capacity(values.len() * 8);
    for x in values {
        v.extend_from_slice(&x.to_le_bytes());
    }
    Arc::from(v)
}

/// Decode a little-endian payload into `f64`s.
pub fn decode_f64s(payload: &[u8]) -> Vec<f64> {
    payload.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8"))).collect()
}

/// Deterministic pseudo-random stream (splitmix64 → uniform in [0, 1)).
pub fn synth_values(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.push((z >> 11) as f64 / (1u64 << 53) as f64);
    }
    out
}

/// Deterministic diagonally-dominant matrix (always LU- and
/// Cholesky-factorisable) of dimension `n`, row-major.
pub fn synth_matrix(seed: u64, n: usize) -> Vec<f64> {
    let mut m = synth_values(seed, n * n);
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| m[i * n + j].abs()).sum();
        m[i * n + i] = row_sum + 1.0; // strict diagonal dominance
    }
    m
}

fn input(inputs: &[Arc<[u8]>], port: usize) -> Result<&[u8], KernelError> {
    inputs.get(port).map(|p| &p[..]).ok_or(KernelError::MissingInput { port })
}

fn vector_input(
    inputs: &[Arc<[u8]>],
    port: usize,
    expected: usize,
) -> Result<Vec<f64>, KernelError> {
    let v = decode_f64s(input(inputs, port)?);
    if v.len() != expected {
        return Err(KernelError::BadInput { port, expected, actual: v.len() });
    }
    Ok(v)
}

/// Run a kernel sequentially. `problem_size` is the task's `n`; `inputs`
/// are the payloads arriving on its input ports (in port order).
/// Returns one payload per output port.
pub fn run_kernel(
    kind: KernelKind,
    problem_size: u64,
    inputs: &[Arc<[u8]>],
) -> Result<Vec<Arc<[u8]>>, KernelError> {
    run_kernel_parallel(kind, problem_size, inputs, 1)
}

/// Run a kernel across `nodes` worker threads (see module docs).
pub fn run_kernel_parallel(
    kind: KernelKind,
    problem_size: u64,
    inputs: &[Arc<[u8]>],
    nodes: u32,
) -> Result<Vec<Arc<[u8]>>, KernelError> {
    let n = problem_size as usize;
    let nodes = nodes.max(1) as usize;
    match kind {
        KernelKind::Source => Ok(vec![encode_f64s(&synth_values(problem_size, n))]),
        KernelKind::Sink => {
            // Consume and checksum; a sink has no output ports.
            let v = decode_f64s(input(inputs, 0)?);
            let _checksum: f64 = v.iter().sum();
            Ok(vec![])
        }
        KernelKind::Map => {
            let x = decode_f64s(input(inputs, 0)?);
            let y = par_map(&x, nodes, |v| {
                let mut y = v;
                for _ in 0..8 {
                    y = y * 0.999 + 0.001;
                }
                y
            });
            Ok(vec![encode_f64s(&y)])
        }
        KernelKind::Sort => {
            let mut x = decode_f64s(input(inputs, 0)?);
            if nodes > 1 {
                parallel_sort(&mut x, nodes);
            } else {
                x.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            }
            Ok(vec![encode_f64s(&x)])
        }
        KernelKind::Reduce => {
            let x = decode_f64s(input(inputs, 0)?);
            let sum = par_ranges(x.len(), nodes, ELEMENT_CUTOFF, |r| x[r].iter().sum::<f64>())
                .into_iter()
                .sum();
            Ok(vec![encode_f64s(&[sum])])
        }
        KernelKind::VectorNorm => {
            let x = decode_f64s(input(inputs, 0)?);
            let ss: f64 = x.iter().map(|v| v * v).sum();
            Ok(vec![encode_f64s(&[ss.sqrt()])])
        }
        KernelKind::MatrixAdd => {
            let a = vector_input(inputs, 0, n * n)?;
            let b = vector_input(inputs, 1, n * n)?;
            let c = par_map2(&a, &b, nodes, |x, y| x + y);
            Ok(vec![encode_f64s(&c)])
        }
        KernelKind::MatrixTranspose => {
            let a = vector_input(inputs, 0, n * n)?;
            let mut t = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    t[j * n + i] = a[i * n + j];
                }
            }
            Ok(vec![encode_f64s(&t)])
        }
        KernelKind::MatrixMultiply => {
            let a = vector_input(inputs, 0, n * n)?;
            let b = vector_input(inputs, 1, n * n)?;
            let c = matmul(&a, &b, n, nodes);
            Ok(vec![encode_f64s(&c)])
        }
        KernelKind::LuDecomposition => {
            let a = vector_input(inputs, 0, n * n)?;
            let (l, u) = lu(&a, n)?;
            Ok(vec![encode_f64s(&l), encode_f64s(&u)])
        }
        KernelKind::Cholesky => {
            let a = vector_input(inputs, 0, n * n)?;
            let l = cholesky(&a, n)?;
            Ok(vec![encode_f64s(&l)])
        }
        KernelKind::ForwardSubstitution => {
            let l = vector_input(inputs, 0, n * n)?;
            let b = vector_input(inputs, 1, n)?;
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut s = b[i];
                for j in 0..i {
                    s -= l[i * n + j] * y[j];
                }
                let d = l[i * n + i];
                if d == 0.0 {
                    return Err(KernelError::Numerical("zero diagonal in L"));
                }
                y[i] = s / d;
            }
            Ok(vec![encode_f64s(&y)])
        }
        KernelKind::BackSubstitution => {
            let u = vector_input(inputs, 0, n * n)?;
            let y = vector_input(inputs, 1, n)?;
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut s = y[i];
                for j in (i + 1)..n {
                    s -= u[i * n + j] * x[j];
                }
                let d = u[i * n + i];
                if d == 0.0 {
                    return Err(KernelError::Numerical("zero diagonal in U"));
                }
                x[i] = s / d;
            }
            Ok(vec![encode_f64s(&x)])
        }
        KernelKind::Fft => {
            let x = decode_f64s(input(inputs, 0)?);
            Ok(vec![encode_f64s(&fft_magnitudes(&x))])
        }
        KernelKind::FirFilter => {
            let x = decode_f64s(input(inputs, 0)?);
            const TAPS: usize = 64;
            let y = par_index_map(x.len(), nodes, |i| {
                let mut acc = 0.0;
                for t in 0..TAPS.min(i + 1) {
                    acc += x[i - t] / TAPS as f64;
                }
                acc
            });
            Ok(vec![encode_f64s(&y)])
        }
        KernelKind::Convolution => {
            let a = decode_f64s(input(inputs, 0)?);
            let b = vector_input(inputs, 1, a.len())?;
            let m = a.len();
            let y = par_index_map(m, nodes, |i| {
                let mut acc = 0.0;
                for j in 0..=i {
                    acc += a[j] * b[i - j];
                }
                acc
            });
            Ok(vec![encode_f64s(&y)])
        }
        KernelKind::SensorIngest => {
            // Parse n raw reports into normalised [0,1) measurements.
            let raw = synth_values(problem_size ^ 0xc3, n);
            Ok(vec![encode_f64s(&raw)])
        }
        KernelKind::TrackCorrelation => {
            let reports = decode_f64s(input(inputs, 0)?);
            let tracks = synth_values(TRACK_FILE_SEED, reports.len());
            // O(n²): nearest track per report.
            let scores = par_index_map(reports.len(), nodes, |i| {
                let mut best = f64::INFINITY;
                for t in &tracks {
                    let d = (reports[i] - t).abs();
                    if d < best {
                        best = d;
                    }
                }
                1.0 / (1.0 + best)
            });
            Ok(vec![encode_f64s(&scores)])
        }
        KernelKind::DataFusion => {
            let a = decode_f64s(input(inputs, 0)?);
            let b = decode_f64s(input(inputs, 1)?);
            let mut fused: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
            fused.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
            // Pairwise average back down to max(|a|, |b|) fused tracks.
            let target = a.len().max(b.len()).max(1);
            let merged: Vec<f64> = fused
                .chunks(2.max(fused.len() / target))
                .map(|c| c.iter().sum::<f64>() / c.len() as f64)
                .collect();
            Ok(vec![encode_f64s(&merged)])
        }
        KernelKind::ThreatAssessment => {
            let x = decode_f64s(input(inputs, 0)?);
            let y = par_map(&x, nodes, |v| 1.0 / (1.0 + (-6.0 * (v - 0.5)).exp()));
            Ok(vec![encode_f64s(&y)])
        }
        KernelKind::CommandDispatch => {
            let x = decode_f64s(input(inputs, 0)?);
            let orders: Vec<f64> = x.iter().copied().filter(|v| *v > 0.5).collect();
            Ok(vec![encode_f64s(&orders)])
        }
    }
}

/// Seed of the synthetic track file used by `TrackCorrelation`.
const TRACK_FILE_SEED: u64 = 0x7a2c_1d01;

/// Serial cutoff of the element-wise kernels, in elements.
const ELEMENT_CUTOFF: usize = 1024;
/// Serial cutoff of the row-parallel matmul, in rows.
const MATMUL_ROW_CUTOFF: usize = 32;

/// Split `0..len` into ranges of `len.div_ceil(nodes)` and run `f` on each
/// range on its own thread, in range order. Below `cutoff` (or on one node)
/// `f` runs once, here, over the whole range.
fn par_ranges<T: Send>(
    len: usize,
    nodes: usize,
    cutoff: usize,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    if nodes <= 1 || len < cutoff {
        return vec![f(0..len)];
    }
    let chunk = len.div_ceil(nodes);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|start| s.spawn(move || f(start..(start + chunk).min(len))))
            .collect();
        handles.into_iter().map(|h| h.join().expect("kernel worker")).collect()
    })
}

/// Parallel map over an index range, one output per index.
fn par_index_map(len: usize, nodes: usize, f: impl Fn(usize) -> f64 + Sync) -> Vec<f64> {
    par_ranges(len, nodes, ELEMENT_CUTOFF, |r| r.map(&f).collect::<Vec<f64>>())
        .into_iter()
        .flatten()
        .collect()
}

fn par_map(x: &[f64], nodes: usize, f: impl Fn(f64) -> f64 + Sync) -> Vec<f64> {
    par_index_map(x.len(), nodes, |i| f(x[i]))
}

fn par_map2(a: &[f64], b: &[f64], nodes: usize, f: impl Fn(f64, f64) -> f64 + Sync) -> Vec<f64> {
    par_index_map(a.len().min(b.len()), nodes, |i| f(a[i], b[i]))
}

fn parallel_sort(x: &mut [f64], nodes: usize) {
    let sorted_chunks = par_ranges(x.len(), nodes, ELEMENT_CUTOFF, |r| {
        let mut v = x[r].to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v
    });
    // K-way merge (k is small).
    let mut merged = Vec::with_capacity(x.len());
    let mut cursors: Vec<(usize, &Vec<f64>)> = sorted_chunks.iter().map(|c| (0usize, c)).collect();
    while merged.len() < x.len() {
        let mut best: Option<usize> = None;
        for (i, (pos, c)) in cursors.iter().enumerate() {
            if *pos < c.len() {
                let better = match best {
                    None => true,
                    Some(b) => c[*pos] < cursors[b].1[cursors[b].0],
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let b = best.expect("elements remain");
        merged.push(cursors[b].1[cursors[b].0]);
        cursors[b].0 += 1;
    }
    x.copy_from_slice(&merged);
}

/// Row-parallel dense matmul.
fn matmul(a: &[f64], b: &[f64], n: usize, nodes: usize) -> Vec<f64> {
    let rows = par_ranges(n, nodes, MATMUL_ROW_CUTOFF, |r| {
        let i0 = r.start;
        let mut out = vec![0.0; r.len() * n];
        for i in r {
            for k in 0..n {
                let aik = a[i * n + k];
                let row = &b[k * n..(k + 1) * n];
                let dst = &mut out[(i - i0) * n..(i - i0 + 1) * n];
                for (d, &bv) in dst.iter_mut().zip(row) {
                    *d += aik * bv;
                }
            }
        }
        out
    });
    rows.into_iter().flatten().collect()
}

/// Doolittle LU without pivoting: A = L·U, L unit-lower-triangular.
fn lu(a: &[f64], n: usize) -> Result<(Vec<f64>, Vec<f64>), KernelError> {
    let mut u = a.to_vec();
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        l[i * n + i] = 1.0;
    }
    for k in 0..n {
        let pivot = u[k * n + k];
        if pivot.abs() < 1e-12 {
            return Err(KernelError::Numerical("zero pivot in LU"));
        }
        for i in (k + 1)..n {
            let factor = u[i * n + k] / pivot;
            l[i * n + k] = factor;
            for j in k..n {
                u[i * n + j] -= factor * u[k * n + j];
            }
        }
    }
    // Zero the (numerically tiny) lower triangle of U.
    for i in 0..n {
        for j in 0..i {
            u[i * n + j] = 0.0;
        }
    }
    Ok((l, u))
}

/// Cholesky factorisation A = L·Lᵀ of an SPD matrix.
fn cholesky(a: &[f64], n: usize) -> Result<Vec<f64>, KernelError> {
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(KernelError::Numerical("matrix not positive definite"));
                }
                l[i * n + j] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    Ok(l)
}

/// Magnitudes of the radix-2 FFT of `x` (zero-padded to a power of two).
fn fft_magnitudes(x: &[f64]) -> Vec<f64> {
    let n = x.len().next_power_of_two().max(1);
    if n == 1 {
        // The 1-point DFT is the sample itself.
        return x.iter().map(|v| v.abs()).collect();
    }
    let mut re: Vec<f64> = x.to_vec();
    re.resize(n, 0.0);
    let mut im = vec![0.0f64; n];
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for j in 0..len / 2 {
                let (ur, ui) = (re[i + j], im[i + j]);
                let (vr, vi) = (
                    re[i + j + len / 2] * cr - im[i + j + len / 2] * ci,
                    re[i + j + len / 2] * ci + im[i + j + len / 2] * cr,
                );
                re[i + j] = ur + vr;
                im[i + j] = ui + vi;
                re[i + j + len / 2] = ur - vr;
                im[i + j + len / 2] = ui - vi;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
    re.iter().zip(im.iter()).take(x.len()).map(|(r, i)| (r * r + i * i).sqrt()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(decode_f64s(&encode_f64s(&v)), v);
        assert!(decode_f64s(&[]).is_empty());
    }

    #[test]
    fn synth_values_deterministic_and_in_range() {
        let a = synth_values(42, 100);
        let b = synth_values(42, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (0.0..1.0).contains(v)));
        assert_ne!(synth_values(43, 100), a);
    }

    #[test]
    fn source_emits_n_values_and_sink_consumes() {
        let out = run_kernel(KernelKind::Source, 50, &[]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(decode_f64s(&out[0]).len(), 50);
        let sunk = run_kernel(KernelKind::Sink, 50, &out).unwrap();
        assert!(sunk.is_empty());
    }

    #[test]
    fn sink_without_input_errors() {
        assert_eq!(
            run_kernel(KernelKind::Sink, 10, &[]),
            Err(KernelError::MissingInput { port: 0 })
        );
    }

    #[test]
    fn sort_sorts() {
        let x = encode_f64s(&[3.0, 1.0, 2.0]);
        let out = run_kernel(KernelKind::Sort, 3, &[x]).unwrap();
        assert_eq!(decode_f64s(&out[0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn parallel_sort_matches_sequential() {
        let x = synth_values(7, 5000);
        let seq = run_kernel(KernelKind::Sort, 5000, &[encode_f64s(&x)]).unwrap();
        let par = run_kernel_parallel(KernelKind::Sort, 5000, &[encode_f64s(&x)], 4).unwrap();
        assert_eq!(decode_f64s(&seq[0]), decode_f64s(&par[0]));
    }

    #[test]
    fn reduce_sums() {
        let x = encode_f64s(&[1.0, 2.0, 3.5]);
        let out = run_kernel(KernelKind::Reduce, 3, &[x]).unwrap();
        assert_eq!(decode_f64s(&out[0]), vec![6.5]);
    }

    #[test]
    fn parallel_reduce_matches_sequential() {
        let x = synth_values(9, 10_000);
        let seq = run_kernel(KernelKind::Reduce, 10_000, &[encode_f64s(&x)]).unwrap();
        let par = run_kernel_parallel(KernelKind::Reduce, 10_000, &[encode_f64s(&x)], 8).unwrap();
        let (a, b) = (decode_f64s(&seq[0])[0], decode_f64s(&par[0])[0]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn vector_norm() {
        let x = encode_f64s(&[3.0, 4.0]);
        let out = run_kernel(KernelKind::VectorNorm, 2, &[x]).unwrap();
        assert!((decode_f64s(&out[0])[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_add_and_transpose() {
        let n = 3usize;
        let a: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..9).map(|i| (9 - i) as f64).collect();
        let sum =
            run_kernel(KernelKind::MatrixAdd, 3, &[encode_f64s(&a), encode_f64s(&b)]).unwrap();
        assert!(decode_f64s(&sum[0]).iter().all(|v| *v == 9.0));
        let t = run_kernel(KernelKind::MatrixTranspose, 3, &[encode_f64s(&a)]).unwrap();
        let t = decode_f64s(&t[0]);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(t[j * n + i], a[i * n + j]);
            }
        }
    }

    #[test]
    fn matmul_identity_is_identity() {
        let n = 4usize;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let a = synth_matrix(5, n);
        let out =
            run_kernel(KernelKind::MatrixMultiply, n as u64, &[encode_f64s(&a), encode_f64s(&eye)])
                .unwrap();
        let c = decode_f64s(&out[0]);
        for (x, y) in c.iter().zip(a.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matmul_matches_sequential() {
        let n = 48usize;
        let a = encode_f64s(&synth_matrix(1, n));
        let b = encode_f64s(&synth_matrix(2, n));
        let seq =
            run_kernel(KernelKind::MatrixMultiply, n as u64, &[a.clone(), b.clone()]).unwrap();
        let par = run_kernel_parallel(KernelKind::MatrixMultiply, n as u64, &[a, b], 4).unwrap();
        let (s, p) = (decode_f64s(&seq[0]), decode_f64s(&par[0]));
        for (x, y) in s.iter().zip(p.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn lu_reconstructs_matrix() {
        let n = 8usize;
        let a = synth_matrix(3, n);
        let out = run_kernel(KernelKind::LuDecomposition, n as u64, &[encode_f64s(&a)]).unwrap();
        assert_eq!(out.len(), 2);
        let l = decode_f64s(&out[0]);
        let u = decode_f64s(&out[1]);
        // L unit lower, U upper.
        for i in 0..n {
            assert!((l[i * n + i] - 1.0).abs() < 1e-12);
            for j in (i + 1)..n {
                assert_eq!(l[i * n + j], 0.0);
            }
            for j in 0..i {
                assert_eq!(u[i * n + j], 0.0);
            }
        }
        // L·U == A.
        let prod = matmul(&l, &u, n, 1);
        for (x, y) in prod.iter().zip(a.iter()) {
            assert!((x - y).abs() < 1e-8, "L·U must reconstruct A");
        }
    }

    #[test]
    fn lu_zero_pivot_is_numerical_error() {
        let a = vec![0.0, 1.0, 1.0, 0.0]; // singular leading minor
        assert!(matches!(
            run_kernel(KernelKind::LuDecomposition, 2, &[encode_f64s(&a)]),
            Err(KernelError::Numerical(_))
        ));
    }

    #[test]
    fn lu_then_substitution_solves_linear_system() {
        let n = 6usize;
        let a = synth_matrix(11, n);
        let x_true = synth_values(12, n);
        // b = A·x.
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[i * n + j] * x_true[j];
            }
        }
        let lu_out = run_kernel(KernelKind::LuDecomposition, n as u64, &[encode_f64s(&a)]).unwrap();
        let y = run_kernel(
            KernelKind::ForwardSubstitution,
            n as u64,
            &[lu_out[0].clone(), encode_f64s(&b)],
        )
        .unwrap();
        let x =
            run_kernel(KernelKind::BackSubstitution, n as u64, &[lu_out[1].clone(), y[0].clone()])
                .unwrap();
        for (xs, xt) in decode_f64s(&x[0]).iter().zip(x_true.iter()) {
            assert!((xs - xt).abs() < 1e-8, "solver must recover x");
        }
    }

    #[test]
    fn cholesky_reconstructs_spd_matrix() {
        let n = 5usize;
        // SPD: A = M·Mᵀ + n·I via synth_matrix's diagonal dominance of a
        // symmetrised matrix.
        let m = synth_matrix(7, n);
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    a[i * n + j] += m[i * n + k] * m[j * n + k];
                }
            }
        }
        let out = run_kernel(KernelKind::Cholesky, n as u64, &[encode_f64s(&a)]).unwrap();
        let l = decode_f64s(&out[0]);
        let mut rec = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    rec[i * n + j] += l[i * n + k] * l[j * n + k];
                }
            }
        }
        for (x, y) in rec.iter().zip(a.iter()) {
            assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        let out = run_kernel(KernelKind::Fft, 8, &[encode_f64s(&x)]).unwrap();
        for m in decode_f64s(&out[0]) {
            assert!((m - 1.0).abs() < 1e-12, "impulse has flat spectrum");
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let x = vec![1.0; 8];
        let out = run_kernel(KernelKind::Fft, 8, &[encode_f64s(&x)]).unwrap();
        let m = decode_f64s(&out[0]);
        assert!((m[0] - 8.0).abs() < 1e-9);
        for v in &m[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn fir_filter_smooths() {
        let x: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let out = run_kernel(KernelKind::FirFilter, 200, &[encode_f64s(&x)]).unwrap();
        let y = decode_f64s(&out[0]);
        assert_eq!(y.len(), 200);
        // After the warm-up, the alternating signal averages to ~0.
        assert!(y[199].abs() < 0.05);
    }

    #[test]
    fn convolution_with_delta() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let mut delta = vec![0.0; 4];
        delta[0] = 1.0;
        let out = run_kernel(KernelKind::Convolution, 4, &[encode_f64s(&a), encode_f64s(&delta)])
            .unwrap();
        assert_eq!(decode_f64s(&out[0]), a);
    }

    #[test]
    fn c3i_pipeline_shapes() {
        let ingest = run_kernel(KernelKind::SensorIngest, 100, &[]).unwrap();
        let corr = run_kernel(KernelKind::TrackCorrelation, 100, &[ingest[0].clone()]).unwrap();
        assert_eq!(decode_f64s(&corr[0]).len(), 100);
        let fused =
            run_kernel(KernelKind::DataFusion, 100, &[corr[0].clone(), ingest[0].clone()]).unwrap();
        assert!(!decode_f64s(&fused[0]).is_empty());
        let threat = run_kernel(KernelKind::ThreatAssessment, 100, &[fused[0].clone()]).unwrap();
        let scores = decode_f64s(&threat[0]);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        let orders = run_kernel(KernelKind::CommandDispatch, 100, &[threat[0].clone()]).unwrap();
        assert!(decode_f64s(&orders[0]).iter().all(|v| *v > 0.5));
    }

    #[test]
    fn bad_matrix_shape_is_reported() {
        let short = encode_f64s(&[1.0, 2.0, 3.0]);
        assert_eq!(
            run_kernel(KernelKind::MatrixTranspose, 3, &[short]),
            Err(KernelError::BadInput { port: 0, expected: 9, actual: 3 })
        );
    }

    #[test]
    fn map_parallel_matches_sequential() {
        let x = synth_values(4, 4096);
        let seq = run_kernel(KernelKind::Map, 4096, &[encode_f64s(&x)]).unwrap();
        let par = run_kernel_parallel(KernelKind::Map, 4096, &[encode_f64s(&x)], 3).unwrap();
        assert_eq!(decode_f64s(&seq[0]), decode_f64s(&par[0]));
    }
}
