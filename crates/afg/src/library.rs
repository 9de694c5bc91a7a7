//! Menu-driven task libraries of the Application Editor (§2).
//!
//! The paper groups predefined tasks "in terms of their functionality, such
//! as the matrix algebra library, C3I (command and control applications)
//! library, etc.". Each library entry here additionally carries the
//! *task-implementation parameters* the paper stores in the site
//! repository's task-performance database: computation size, communication
//! size and required memory (§3), expressed as simple polynomial models of
//! the task's problem size so that the performance-prediction crate can
//! evaluate `Predict(task, resource)` for any problem size.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The computational kernel implemented by a library task.
///
/// Every kernel has a real Rust implementation in `vdce-runtime::kernels`;
/// the enum is the key shared between the AFG, the task-performance
/// database, and the executor (standing in for the executable paths of the
/// task-constraints database).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    // -- matrix algebra ---------------------------------------------------
    /// Dense LU decomposition without pivoting, O(n^3).
    LuDecomposition,
    /// Dense matrix × matrix multiply, O(n^3).
    MatrixMultiply,
    /// Dense matrix addition, O(n^2).
    MatrixAdd,
    /// Dense matrix transpose, O(n^2).
    MatrixTranspose,
    /// Forward substitution with a lower-triangular factor, O(n^2).
    ForwardSubstitution,
    /// Back substitution with an upper-triangular factor, O(n^2).
    BackSubstitution,
    /// Cholesky factorisation of an SPD matrix, O(n^3).
    Cholesky,
    /// Euclidean norm of a vector, O(n).
    VectorNorm,
    // -- signal processing ------------------------------------------------
    /// Radix-2 complex FFT, O(n log n).
    Fft,
    /// FIR filter over a sample stream, O(n · taps).
    FirFilter,
    /// 1-D convolution, O(n^2) for the synthetic sizes used here.
    Convolution,
    // -- C3I (command, control, communication, intelligence) --------------
    /// Parse and normalise raw sensor reports, O(n).
    SensorIngest,
    /// Correlate new reports against existing tracks, O(n^2).
    TrackCorrelation,
    /// Fuse correlated tracks from several sensors, O(n log n).
    DataFusion,
    /// Score fused tracks for threat level, O(n).
    ThreatAssessment,
    /// Produce engagement/command messages, O(n).
    CommandDispatch,
    // -- generic -----------------------------------------------------------
    /// Produce synthetic data (entry node helper), O(n).
    Source,
    /// Consume and checksum data (exit node helper), O(n).
    Sink,
    /// Comparison sort, O(n log n).
    Sort,
    /// Associative reduction, O(n).
    Reduce,
    /// Element-wise map with a fixed per-element cost, O(n).
    Map,
}

impl KernelKind {
    /// All kernels, in a stable order.
    pub const ALL: [KernelKind; 21] = [
        KernelKind::LuDecomposition,
        KernelKind::MatrixMultiply,
        KernelKind::MatrixAdd,
        KernelKind::MatrixTranspose,
        KernelKind::ForwardSubstitution,
        KernelKind::BackSubstitution,
        KernelKind::Cholesky,
        KernelKind::VectorNorm,
        KernelKind::Fft,
        KernelKind::FirFilter,
        KernelKind::Convolution,
        KernelKind::SensorIngest,
        KernelKind::TrackCorrelation,
        KernelKind::DataFusion,
        KernelKind::ThreatAssessment,
        KernelKind::CommandDispatch,
        KernelKind::Source,
        KernelKind::Sink,
        KernelKind::Sort,
        KernelKind::Reduce,
        KernelKind::Map,
    ];
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Functional grouping of library entries — the editor's menu structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LibraryGroup {
    /// Dense linear algebra.
    MatrixAlgebra,
    /// Command-and-control applications (the paper's Rome Laboratory
    /// context).
    C3i,
    /// DSP-style streaming kernels.
    SignalProcessing,
    /// Structure-free helpers (sources, sinks, sorts, …).
    Generic,
}

impl fmt::Display for LibraryGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LibraryGroup::MatrixAlgebra => "Matrix Algebra",
            LibraryGroup::C3i => "C3I",
            LibraryGroup::SignalProcessing => "Signal Processing",
            LibraryGroup::Generic => "Generic",
        };
        f.write_str(s)
    }
}

/// Polynomial cost model `coeff · n^exp` (with an optional `n·log2(n)`
/// flavour) used for the computation-size, communication-size and memory
/// parameters of a task implementation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostPoly {
    /// Multiplicative coefficient.
    pub(crate) coeff: f64,
    /// Exponent applied to the problem size.
    pub exp: f64,
    /// If true, an extra `log2(n)` factor is applied (for n ≥ 2).
    pub(crate) log_factor: bool,
}

impl CostPoly {
    /// A cost of exactly `c`, independent of the problem size.
    pub(crate) const fn constant(c: f64) -> Self {
        CostPoly { coeff: c, exp: 0.0, log_factor: false }
    }

    /// `coeff · n^exp`.
    pub(crate) const fn poly(coeff: f64, exp: f64) -> Self {
        CostPoly { coeff, exp, log_factor: false }
    }

    /// `coeff · n^exp · log2(n)`.
    pub(crate) const fn poly_log(coeff: f64, exp: f64) -> Self {
        CostPoly { coeff, exp, log_factor: true }
    }

    /// Evaluate the model at problem size `n`.
    pub(crate) fn eval(&self, n: u64) -> f64 {
        let nf = n as f64;
        let mut v = self.coeff * nf.powf(self.exp);
        if self.log_factor {
            v *= nf.max(2.0).log2();
        }
        v
    }

    /// The model at problem size `n` as a byte count.
    fn eval_bytes(&self, n: u64) -> u64 {
        self.eval(n).max(0.0) as u64
    }

    /// The model's bits: two models with equal bits evaluate to the same
    /// bits at every problem size.
    fn bits(&self) -> (u64, u64, bool) {
        (self.coeff.to_bits(), self.exp.to_bits(), self.log_factor)
    }
}

/// The task side of a prediction (§3): a library entry's computation-size
/// and required-memory models, which with a problem size fix the task's
/// half of `Predict`. A plain value, so a holder keeps the models it
/// priced from without borrowing the library.
#[derive(Debug, Clone, Copy)]
pub struct TaskCosts {
    computation: CostPoly,
    memory: CostPoly,
}

impl TaskCosts {
    /// Computation size and required memory at problem size `n`: the
    /// [`LibraryEntry::computation_size`] and
    /// [`LibraryEntry::required_memory`] of the entry the models came
    /// from, bit for bit.
    pub fn at(&self, n: u64) -> (f64, u64) {
        (self.computation.eval(n), self.memory.eval_bytes(n))
    }

    /// Are both models equal bit for bit, so that [`at`](Self::at) gives
    /// `self` and `other` the same bits at every problem size? A
    /// coefficient of `0.0` and one of `-0.0` differ here, where `==`
    /// would call them equal.
    pub fn same_bits(&self, other: &TaskCosts) -> bool {
        self.computation.bits() == other.computation.bits()
            && self.memory.bits() == other.memory.bits()
    }
}

/// One entry of a task library: the icon the user drags into the editor,
/// plus the implementation parameters stored in the task-performance
/// database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibraryEntry {
    /// Library-unique task name, e.g. `LU_Decomposition`.
    pub name: String,
    /// Menu group.
    pub group: LibraryGroup,
    /// Kernel implementing the task.
    pub kernel: KernelKind,
    /// Number of logical input ports of the icon.
    pub in_ports: u16,
    /// Number of logical output ports of the icon.
    pub out_ports: u16,
    /// Computation size in abstract floating-point operations as a function
    /// of the problem size (task-performance DB: "computation size").
    pub computation: CostPoly,
    /// Bytes produced on *each* output port as a function of the problem
    /// size (task-performance DB: "communication size").
    pub(crate) output_bytes: CostPoly,
    /// Required memory in bytes as a function of the problem size
    /// (task-performance DB: "required memory size").
    pub(crate) memory_bytes: CostPoly,
    /// Whether a parallel (multi-node) implementation exists.
    pub(crate) parallelizable: bool,
    /// One-line human description shown in the editor menu.
    pub description: String,
}

impl LibraryEntry {
    /// Computation size (abstract flops) at problem size `n`.
    #[inline]
    pub fn computation_size(&self, n: u64) -> f64 {
        self.computation.eval(n)
    }

    /// Bytes emitted per output port at problem size `n`.
    #[inline]
    pub(crate) fn output_size(&self, n: u64) -> u64 {
        self.output_bytes.eval_bytes(n)
    }

    /// Required memory in bytes at problem size `n`.
    #[inline]
    pub fn required_memory(&self, n: u64) -> u64 {
        self.memory_bytes.eval_bytes(n)
    }

    /// The computation-size and required-memory models, as a value.
    pub fn task_costs(&self) -> TaskCosts {
        TaskCosts { computation: self.computation, memory: self.memory_bytes }
    }
}

/// A named collection of [`LibraryEntry`]s — the editor's task menu.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskLibrary {
    entries: BTreeMap<String, LibraryEntry>,
}

impl TaskLibrary {
    /// Empty library.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert an entry, replacing any previous entry of the same name.
    pub(crate) fn insert(&mut self, entry: LibraryEntry) {
        self.entries.insert(entry.name.clone(), entry);
    }

    /// Look up an entry by task name.
    pub fn get(&self, name: &str) -> Option<&LibraryEntry> {
        self.entries.get(name)
    }

    /// Entries of one menu group, in name order.
    pub fn group(&self, group: LibraryGroup) -> Vec<&LibraryEntry> {
        self.entries.values().filter(|e| e.group == group).collect()
    }

    /// Merge `other` into `self` (entries of `other` win on name clash).
    pub(crate) fn merge(&mut self, other: TaskLibrary) {
        self.entries.extend(other.entries);
    }

    /// The matrix-algebra library of the paper's Figure 1.
    pub(crate) fn matrix_algebra() -> Self {
        let mut lib = Self::new();
        let e = |name: &str, kernel, inp, outp, comp, out, mem, par, desc: &str| LibraryEntry {
            name: name.into(),
            group: LibraryGroup::MatrixAlgebra,
            kernel,
            in_ports: inp,
            out_ports: outp,
            computation: comp,
            output_bytes: out,
            memory_bytes: mem,
            parallelizable: par,
            description: desc.into(),
        };
        lib.insert(e(
            "LU_Decomposition",
            KernelKind::LuDecomposition,
            1,
            2,
            CostPoly::poly(2.0 / 3.0, 3.0),
            CostPoly::poly(8.0, 2.0),
            CostPoly::poly(16.0, 2.0),
            true,
            "LU factorisation A = L·U of a dense n×n matrix",
        ));
        lib.insert(e(
            "Matrix_Multiplication",
            KernelKind::MatrixMultiply,
            2,
            1,
            CostPoly::poly(2.0, 3.0),
            CostPoly::poly(8.0, 2.0),
            CostPoly::poly(24.0, 2.0),
            true,
            "Dense n×n matrix product C = A·B",
        ));
        lib.insert(e(
            "Matrix_Add",
            KernelKind::MatrixAdd,
            2,
            1,
            CostPoly::poly(1.0, 2.0),
            CostPoly::poly(8.0, 2.0),
            CostPoly::poly(24.0, 2.0),
            true,
            "Dense n×n matrix sum C = A + B",
        ));
        lib.insert(e(
            "Matrix_Transpose",
            KernelKind::MatrixTranspose,
            1,
            1,
            CostPoly::poly(1.0, 2.0),
            CostPoly::poly(8.0, 2.0),
            CostPoly::poly(16.0, 2.0),
            false,
            "Transpose of a dense n×n matrix",
        ));
        lib.insert(e(
            "Forward_Substitution",
            KernelKind::ForwardSubstitution,
            2,
            1,
            CostPoly::poly(1.0, 2.0),
            CostPoly::poly(8.0, 1.0),
            CostPoly::poly(8.0, 2.0),
            false,
            "Solve L·y = b for lower-triangular L",
        ));
        lib.insert(e(
            "Back_Substitution",
            KernelKind::BackSubstitution,
            2,
            1,
            CostPoly::poly(1.0, 2.0),
            CostPoly::poly(8.0, 1.0),
            CostPoly::poly(8.0, 2.0),
            false,
            "Solve U·x = y for upper-triangular U",
        ));
        lib.insert(e(
            "Cholesky",
            KernelKind::Cholesky,
            1,
            1,
            CostPoly::poly(1.0 / 3.0, 3.0),
            CostPoly::poly(8.0, 2.0),
            CostPoly::poly(16.0, 2.0),
            true,
            "Cholesky factorisation A = L·Lᵀ of an SPD matrix",
        ));
        lib.insert(e(
            "Vector_Norm",
            KernelKind::VectorNorm,
            1,
            1,
            CostPoly::poly(2.0, 1.0),
            CostPoly::constant(8.0),
            CostPoly::poly(8.0, 1.0),
            false,
            "Euclidean norm of an n-vector",
        ));
        lib
    }

    /// The C3I (command-and-control) library motivated by the paper's Rome
    /// Laboratory funding context.
    pub(crate) fn c3i() -> Self {
        let mut lib = Self::new();
        let e = |name: &str, kernel, inp, outp, comp, out, mem, par, desc: &str| LibraryEntry {
            name: name.into(),
            group: LibraryGroup::C3i,
            kernel,
            in_ports: inp,
            out_ports: outp,
            computation: comp,
            output_bytes: out,
            memory_bytes: mem,
            parallelizable: par,
            description: desc.into(),
        };
        lib.insert(e(
            "Sensor_Ingest",
            KernelKind::SensorIngest,
            0,
            1,
            CostPoly::poly(50.0, 1.0),
            CostPoly::poly(64.0, 1.0),
            CostPoly::poly(96.0, 1.0),
            false,
            "Parse and normalise n raw sensor reports",
        ));
        lib.insert(e(
            "Track_Correlation",
            KernelKind::TrackCorrelation,
            1,
            1,
            CostPoly::poly(6.0, 2.0),
            CostPoly::poly(96.0, 1.0),
            CostPoly::poly(128.0, 1.0),
            true,
            "Correlate n reports against the track file",
        ));
        lib.insert(e(
            "Data_Fusion",
            KernelKind::DataFusion,
            2,
            1,
            CostPoly::poly_log(40.0, 1.0),
            CostPoly::poly(96.0, 1.0),
            CostPoly::poly(192.0, 1.0),
            true,
            "Fuse correlated tracks from two sensor chains",
        ));
        lib.insert(e(
            "Threat_Assessment",
            KernelKind::ThreatAssessment,
            1,
            1,
            CostPoly::poly(120.0, 1.0),
            CostPoly::poly(32.0, 1.0),
            CostPoly::poly(64.0, 1.0),
            false,
            "Score n fused tracks for threat level",
        ));
        lib.insert(e(
            "Command_Dispatch",
            KernelKind::CommandDispatch,
            1,
            1,
            CostPoly::poly(25.0, 1.0),
            CostPoly::poly(48.0, 1.0),
            CostPoly::poly(48.0, 1.0),
            false,
            "Produce engagement orders for scored tracks",
        ));
        lib
    }

    /// DSP-style streaming kernels.
    pub(crate) fn signal_processing() -> Self {
        let mut lib = Self::new();
        let e = |name: &str, kernel, inp, outp, comp, out, mem, par, desc: &str| LibraryEntry {
            name: name.into(),
            group: LibraryGroup::SignalProcessing,
            kernel,
            in_ports: inp,
            out_ports: outp,
            computation: comp,
            output_bytes: out,
            memory_bytes: mem,
            parallelizable: par,
            description: desc.into(),
        };
        lib.insert(e(
            "FFT",
            KernelKind::Fft,
            1,
            1,
            CostPoly::poly_log(5.0, 1.0),
            CostPoly::poly(16.0, 1.0),
            CostPoly::poly(32.0, 1.0),
            true,
            "Radix-2 complex FFT of n samples",
        ));
        lib.insert(e(
            "FIR_Filter",
            KernelKind::FirFilter,
            1,
            1,
            CostPoly::poly(128.0, 1.0),
            CostPoly::poly(8.0, 1.0),
            CostPoly::poly(16.0, 1.0),
            false,
            "64-tap FIR filter over n samples",
        ));
        lib.insert(e(
            "Convolution",
            KernelKind::Convolution,
            2,
            1,
            CostPoly::poly(2.0, 2.0),
            CostPoly::poly(8.0, 1.0),
            CostPoly::poly(24.0, 1.0),
            true,
            "Direct 1-D convolution of two n-sample signals",
        ));
        lib
    }

    /// Structure-free helper tasks.
    pub(crate) fn generic() -> Self {
        let mut lib = Self::new();
        let e = |name: &str, kernel, inp, outp, comp, out, mem, par, desc: &str| LibraryEntry {
            name: name.into(),
            group: LibraryGroup::Generic,
            kernel,
            in_ports: inp,
            out_ports: outp,
            computation: comp,
            output_bytes: out,
            memory_bytes: mem,
            parallelizable: par,
            description: desc.into(),
        };
        lib.insert(e(
            "Source",
            KernelKind::Source,
            0,
            1,
            CostPoly::poly(1.0, 1.0),
            CostPoly::poly(8.0, 1.0),
            CostPoly::poly(8.0, 1.0),
            false,
            "Generate n synthetic values",
        ));
        lib.insert(e(
            "Sink",
            KernelKind::Sink,
            1,
            0,
            CostPoly::poly(1.0, 1.0),
            CostPoly::constant(0.0),
            CostPoly::poly(8.0, 1.0),
            false,
            "Consume and checksum incoming data",
        ));
        lib.insert(e(
            "Sort",
            KernelKind::Sort,
            1,
            1,
            CostPoly::poly_log(4.0, 1.0),
            CostPoly::poly(8.0, 1.0),
            CostPoly::poly(16.0, 1.0),
            true,
            "Comparison sort of n keys",
        ));
        lib.insert(e(
            "Reduce",
            KernelKind::Reduce,
            1,
            1,
            CostPoly::poly(2.0, 1.0),
            CostPoly::constant(8.0),
            CostPoly::poly(8.0, 1.0),
            true,
            "Associative reduction of n values",
        ));
        lib.insert(e(
            "Map",
            KernelKind::Map,
            1,
            1,
            CostPoly::poly(16.0, 1.0),
            CostPoly::poly(8.0, 1.0),
            CostPoly::poly(16.0, 1.0),
            true,
            "Element-wise transform of n values",
        ));
        lib
    }

    /// All four standard libraries merged — what a freshly installed VDCE
    /// site offers in its editor menus.
    pub fn standard() -> Self {
        let mut lib = Self::matrix_algebra();
        lib.merge(Self::c3i());
        lib.merge(Self::signal_processing());
        lib.merge(Self::generic());
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_poly_constant() {
        let c = CostPoly::constant(42.0);
        assert_eq!(c.eval(0), 42.0);
        assert_eq!(c.eval(1_000_000), 42.0);
    }

    #[test]
    fn cost_poly_cubic() {
        let c = CostPoly::poly(2.0, 3.0);
        assert_eq!(c.eval(10), 2000.0);
    }

    #[test]
    fn cost_poly_nlogn() {
        let c = CostPoly::poly_log(1.0, 1.0);
        assert_eq!(c.eval(8), 8.0 * 3.0);
        // log factor clamps n to ≥ 2 so eval(1) is not zeroed by log2(1)=0
        assert!(c.eval(1) > 0.0);
    }

    #[test]
    fn standard_library_contains_all_groups() {
        let lib = TaskLibrary::standard();
        assert!(!lib.group(LibraryGroup::MatrixAlgebra).is_empty());
        assert!(!lib.group(LibraryGroup::C3i).is_empty());
        assert!(!lib.group(LibraryGroup::SignalProcessing).is_empty());
        assert!(!lib.group(LibraryGroup::Generic).is_empty());
        assert_eq!(lib.entries.len(), KernelKind::ALL.len());
    }

    #[test]
    fn standard_library_covers_every_kernel_exactly_once() {
        let lib = TaskLibrary::standard();
        let mut kernels: Vec<KernelKind> = lib.entries.values().map(|e| e.kernel).collect();
        kernels.sort();
        kernels.dedup();
        assert_eq!(kernels.len(), KernelKind::ALL.len());
    }

    #[test]
    fn figure1_tasks_are_present_with_expected_ports() {
        let lib = TaskLibrary::standard();
        let lu = lib.get("LU_Decomposition").expect("LU in library");
        assert_eq!(lu.in_ports, 1);
        assert_eq!(lu.out_ports, 2, "LU emits L and U");
        assert!(lu.parallelizable);
        let mm = lib.get("Matrix_Multiplication").expect("MM in library");
        assert_eq!(mm.in_ports, 2);
        assert_eq!(mm.out_ports, 1);
    }

    #[test]
    fn lu_computation_size_scales_cubically() {
        let lib = TaskLibrary::standard();
        let lu = lib.get("LU_Decomposition").unwrap();
        let small = lu.computation_size(100);
        let big = lu.computation_size(200);
        let ratio = big / small;
        assert!((ratio - 8.0).abs() < 1e-9, "doubling n must 8× an O(n^3) kernel, got {ratio}");
    }

    #[test]
    fn output_and_memory_sizes_are_nonnegative_integers() {
        let lib = TaskLibrary::standard();
        for e in lib.entries.values() {
            for n in [1u64, 16, 1024] {
                let _ = e.output_size(n);
                assert!(e.required_memory(n) < u64::MAX / 2);
            }
        }
    }

    #[test]
    fn merge_prefers_right_hand_entries() {
        let mut a = TaskLibrary::new();
        a.insert(LibraryEntry {
            name: "X".into(),
            group: LibraryGroup::Generic,
            kernel: KernelKind::Map,
            in_ports: 1,
            out_ports: 1,
            computation: CostPoly::constant(1.0),
            output_bytes: CostPoly::constant(1.0),
            memory_bytes: CostPoly::constant(1.0),
            parallelizable: false,
            description: "old".into(),
        });
        let mut b = TaskLibrary::new();
        b.insert(LibraryEntry {
            name: "X".into(),
            group: LibraryGroup::Generic,
            kernel: KernelKind::Map,
            in_ports: 1,
            out_ports: 1,
            computation: CostPoly::constant(2.0),
            output_bytes: CostPoly::constant(1.0),
            memory_bytes: CostPoly::constant(1.0),
            parallelizable: false,
            description: "new".into(),
        });
        a.merge(b);
        assert_eq!(a.entries.len(), 1);
        assert_eq!(a.get("X").unwrap().description, "new");
    }

    /// `TaskCosts::at` is the entry's own pair, bit for bit, and
    /// `same_bits` tells apart what `==` on the coefficients would not.
    #[test]
    fn task_costs_are_the_entrys_costs_and_compare_by_bits() {
        let lib = TaskLibrary::standard();
        for e in lib.entries.values() {
            for n in [0u64, 1, 2, 17, 1024, 20_000_000] {
                let (flops, memory) = e.task_costs().at(n);
                assert_eq!(flops.to_bits(), e.computation_size(n).to_bits(), "{}", e.name);
                assert_eq!(memory, e.required_memory(n), "{}", e.name);
            }
            assert!(e.task_costs().same_bits(&e.task_costs()));
        }
        let costs = |computation, memory| TaskCosts { computation, memory };
        let base = costs(CostPoly::poly(2.0, 3.0), CostPoly::constant(64.0));
        assert!(!base.same_bits(&costs(CostPoly::poly_log(2.0, 3.0), CostPoly::constant(64.0))));
        assert!(!base.same_bits(&costs(CostPoly::poly(2.0, 3.0), CostPoly::constant(65.0))));
        let zero = costs(CostPoly::constant(0.0), CostPoly::constant(0.0));
        let negative_zero = costs(CostPoly::constant(-0.0), CostPoly::constant(0.0));
        assert!(!zero.same_bits(&negative_zero));
        assert_ne!(zero.at(5).0.to_bits(), negative_zero.at(5).0.to_bits());
    }

    #[test]
    fn group_listing_is_name_ordered() {
        let lib = TaskLibrary::standard();
        let names: Vec<&str> =
            lib.group(LibraryGroup::C3i).iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn serde_round_trip_library() {
        let lib = TaskLibrary::standard();
        let json = serde_json::to_string(&lib).unwrap();
        let back: TaskLibrary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, lib);
    }
}
