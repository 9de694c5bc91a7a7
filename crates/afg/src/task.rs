//! Task nodes and the per-task property sheet of the Application Editor.
//!
//! A double click on a task icon in the VDCE Application Editor opens a
//! *task properties window* (Figure 1 of the paper) where the user states
//! optional preferences: computational mode (sequential or parallel),
//! input/output files, preferred machine type, preferred machine, and the
//! number of processors for a parallel implementation. If an input is
//! supplied by a parent task, its file entry is marked `dataflow`.
//! [`TaskProperties`] captures exactly that sheet; [`TaskNode`] combines it
//! with the task-library identity of the icon.

use crate::ids::{DatasetId, TaskId};
use crate::library::KernelKind;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Computational mode of a task (§2): either a sequential implementation on
/// one host, or a parallel implementation across `num_nodes` hosts of one
/// site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ComputationMode {
    /// Single-host implementation.
    #[default]
    Sequential,
    /// Multi-host implementation; the host-selection algorithm picks the
    /// requested number of machines within one site (§3).
    Parallel,
}

impl fmt::Display for ComputationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputationMode::Sequential => write!(f, "Sequential"),
            ComputationMode::Parallel => write!(f, "Parallel"),
        }
    }
}

/// Machine (architecture/OS) classes of the mid-1990s campus pools VDCE ran
/// on, plus [`MachineType::Any`] for the editor's `<any>` default.
///
/// The resource-performance database stores one of these per host; the task
/// properties sheet lets the user *prefer* one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MachineType {
    /// No preference (the editor default, rendered `<any>`).
    #[default]
    Any,
    /// SUN SPARC running Solaris.
    SunSolaris,
    /// SUN SPARC running SunOS 4.
    SunOs,
    /// IBM RS/6000 running AIX.
    IbmRs6000,
    /// SGI running IRIX.
    SgiIrix,
    /// HP PA-RISC running HP-UX.
    HpUx,
    /// Commodity PC running Linux.
    LinuxPc,
}

impl MachineType {
    /// Does a host of type `host` satisfy this *preference*?
    ///
    /// `Any` matches everything; a concrete preference only matches the
    /// identical type.
    #[inline]
    pub fn accepts(self, host: MachineType) -> bool {
        self == MachineType::Any || self == host
    }

    /// All concrete (non-`Any`) machine types.
    pub const CONCRETE: [MachineType; 6] = [
        MachineType::SunSolaris,
        MachineType::SunOs,
        MachineType::IbmRs6000,
        MachineType::SgiIrix,
        MachineType::HpUx,
        MachineType::LinuxPc,
    ];
}

impl fmt::Display for MachineType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MachineType::Any => "<any>",
            MachineType::SunSolaris => "<SUN solaris>",
            MachineType::SunOs => "<SUN os>",
            MachineType::IbmRs6000 => "<IBM rs6000>",
            MachineType::SgiIrix => "<SGI irix>",
            MachineType::HpUx => "<HP ux>",
            MachineType::LinuxPc => "<Linux pc>",
        };
        f.write_str(s)
    }
}

/// One entry of the `Input:` or `Output:` list of the task properties
/// window.
///
/// The paper's I/O service supports file I/O and URL I/O (§4.2); inputs fed
/// by a parent task are marked `dataflow` (§2, Figure 1). Beyond the
/// paper, an entry may name a [`DatasetId`] in the federation-wide
/// replicated-dataset catalog (`vdce-data`); its size and replica
/// locations then live in the catalog, not on the property sheet.
///
/// The enum is `#[non_exhaustive]`: construct through the typed builders
/// ([`IoSpec::dataset`], [`IoSpec::inline_file`], [`IoSpec::url`],
/// [`IoSpec::Dataflow`]) and keep a wildcard arm when matching from
/// other crates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum IoSpec {
    /// The datum flows in from (or out to) another task over a Data-Manager
    /// channel; no file is involved.
    Dataflow,
    /// A file in the user's VDCE home area, with its size in bytes (the
    /// editor displays `SIZE=...`). Size 0 means "unknown until runtime".
    File {
        /// Absolute VDCE path, e.g. `/users/VDCE/user_k/matrix_A.dat`.
        path: String,
        /// Size in bytes as recorded by the editor, 0 if unknown.
        size: u64,
    },
    /// A URL fetched by the I/O service at execution time.
    Url {
        /// The URL.
        url: String,
        /// Expected size in bytes, 0 if unknown.
        size: u64,
    },
    /// A replicated dataset in the catalog. Size and replica sites are
    /// catalog properties; the scheduler charges the cheapest replica.
    Dataset {
        /// Catalog identifier.
        id: DatasetId,
    },
}

impl IoSpec {
    /// Typed constructor for an inline file spec (path + size on the
    /// property sheet itself).
    pub fn inline_file(path: impl Into<String>, size: u64) -> Self {
        IoSpec::File { path: path.into(), size }
    }

    /// Convenience constructor for a URL spec.
    pub fn url(url: impl Into<String>, size: u64) -> Self {
        IoSpec::Url { url: url.into(), size }
    }

    /// Typed constructor for a catalog dataset reference.
    pub fn dataset(id: impl Into<DatasetId>) -> Self {
        IoSpec::Dataset { id: id.into() }
    }

    /// Returns `true` for [`IoSpec::Dataflow`].
    #[inline]
    pub(crate) fn is_dataflow(&self) -> bool {
        matches!(self, IoSpec::Dataflow)
    }

    /// The referenced catalog dataset, if this entry is one.
    #[inline]
    pub fn dataset_id(&self) -> Option<DatasetId> {
        match self {
            IoSpec::Dataset { id } => Some(*id),
            _ => None,
        }
    }
}

impl fmt::Display for IoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoSpec::Dataflow => write!(f, "dataflow"),
            IoSpec::File { path, size } => write!(f, "{path}, SIZE={size}"),
            IoSpec::Url { url, size } => write!(f, "{url}, SIZE={size}"),
            IoSpec::Dataset { id } => write!(f, "dataset {id}"),
        }
    }
}

/// The task-properties sheet (Figure 1): the user's optional preferences
/// and I/O declarations for one task icon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskProperties {
    /// Sequential or parallel implementation.
    pub mode: ComputationMode,
    /// Number of hosts requested for a parallel implementation (1 for
    /// sequential tasks).
    pub num_nodes: u32,
    /// Preferred machine *type*, `<any>` by default.
    pub machine_type: MachineType,
    /// Preferred concrete machine (host name), if any. A scheduler must
    /// honour this when the host is up and satisfies the constraints.
    pub preferred_host: Option<String>,
    /// Input list, one entry per input port, in port order.
    pub inputs: Vec<IoSpec>,
    /// Output list, one entry per output port, in port order.
    pub outputs: Vec<IoSpec>,
}

impl Default for TaskProperties {
    fn default() -> Self {
        TaskProperties {
            mode: ComputationMode::Sequential,
            num_nodes: 1,
            machine_type: MachineType::Any,
            preferred_host: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

impl TaskProperties {
    /// Effective number of hosts this task occupies: `num_nodes` when
    /// parallel, always 1 when sequential (whatever `num_nodes` says).
    #[inline]
    pub fn effective_nodes(&self) -> u32 {
        match self.mode {
            ComputationMode::Sequential => 1,
            ComputationMode::Parallel => self.num_nodes.max(1),
        }
    }
}

/// One node of an Application Flow Graph: a task-library icon plus its
/// filled-in property sheet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskNode {
    /// Identifier within the owning AFG.
    pub id: TaskId,
    /// Instance name shown in the editor (unique within the AFG), e.g.
    /// `LU_Decomposition`. Shared, immutable: the scheduler's allocation
    /// table names every task it places, and sharing makes each of those
    /// rows a pointer copy instead of a string clone.
    pub name: Arc<str>,
    /// Name of the library entry this icon was dragged from; keys into the
    /// task-performance and task-constraints databases.
    pub library_task: String,
    /// The computational kernel the library entry denotes.
    pub kernel: KernelKind,
    /// Problem-size parameter passed to the kernel (e.g. matrix dimension
    /// N for `LuDecomposition`). Interpretation is kernel-specific.
    pub problem_size: u64,
    /// The property sheet.
    pub props: TaskProperties,
}

impl TaskNode {
    /// Number of declared input ports.
    #[inline]
    pub fn in_ports(&self) -> usize {
        self.props.inputs.len()
    }

    /// Number of declared output ports.
    #[inline]
    pub(crate) fn out_ports(&self) -> usize {
        self.props.outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_type_any_accepts_everything() {
        for t in MachineType::CONCRETE {
            assert!(MachineType::Any.accepts(t));
        }
        assert!(MachineType::Any.accepts(MachineType::Any));
    }

    #[test]
    fn machine_type_concrete_accepts_only_itself() {
        assert!(MachineType::SunSolaris.accepts(MachineType::SunSolaris));
        assert!(!MachineType::SunSolaris.accepts(MachineType::LinuxPc));
        assert!(!MachineType::LinuxPc.accepts(MachineType::Any));
    }

    #[test]
    fn machine_type_display_matches_editor_syntax() {
        assert_eq!(MachineType::Any.to_string(), "<any>");
        assert_eq!(MachineType::SunSolaris.to_string(), "<SUN solaris>");
    }

    #[test]
    fn io_spec_dataset_accessors() {
        let d = IoSpec::dataset(DatasetId(7));
        assert_eq!(d.dataset_id(), Some(DatasetId(7)));
        assert_eq!(d.to_string(), "dataset d7");
        assert_eq!(IoSpec::Dataflow.dataset_id(), None);
        assert_eq!(IoSpec::inline_file("/a", 1).dataset_id(), None);
        assert!(IoSpec::Dataflow.is_dataflow());
        assert!(!IoSpec::inline_file("/a", 1).is_dataflow());
    }

    #[test]
    fn io_spec_display() {
        assert_eq!(IoSpec::Dataflow.to_string(), "dataflow");
        assert_eq!(
            IoSpec::inline_file("/users/VDCE/user_k/matrix_A.dat", 124_880).to_string(),
            "/users/VDCE/user_k/matrix_A.dat, SIZE=124880"
        );
    }

    #[test]
    fn effective_nodes_ignores_num_nodes_for_sequential() {
        let mut p = TaskProperties { num_nodes: 8, ..TaskProperties::default() };
        assert_eq!(p.effective_nodes(), 1);
        p.mode = ComputationMode::Parallel;
        assert_eq!(p.effective_nodes(), 8);
        p.num_nodes = 0;
        assert_eq!(p.effective_nodes(), 1, "parallel with 0 nodes clamps to 1");
    }

    #[test]
    fn default_properties_match_editor_defaults() {
        let p = TaskProperties::default();
        assert_eq!(p.mode, ComputationMode::Sequential);
        assert_eq!(p.num_nodes, 1);
        assert_eq!(p.machine_type, MachineType::Any);
        assert!(p.preferred_host.is_none());
        assert!(p.inputs.is_empty() && p.outputs.is_empty());
    }

    #[test]
    fn task_node_port_counts_follow_io_lists() {
        let node = TaskNode {
            id: TaskId(0),
            name: "X".into(),
            library_task: "Matrix_Multiplication".into(),
            kernel: KernelKind::MatrixMultiply,
            problem_size: 64,
            props: TaskProperties {
                inputs: vec![IoSpec::Dataflow, IoSpec::Dataflow],
                outputs: vec![IoSpec::inline_file("/out", 0)],
                ..TaskProperties::default()
            },
        };
        assert_eq!(node.in_ports(), 2);
        assert_eq!(node.out_ports(), 1);
    }

    #[test]
    fn serde_round_trip_task_node() {
        let node = TaskNode {
            id: TaskId(3),
            name: "LU".into(),
            library_task: "LU_Decomposition".into(),
            kernel: KernelKind::LuDecomposition,
            problem_size: 256,
            props: TaskProperties {
                mode: ComputationMode::Parallel,
                num_nodes: 2,
                machine_type: MachineType::SunSolaris,
                preferred_host: Some("hunding.top.cis.syr.edu".into()),
                inputs: vec![IoSpec::inline_file("/users/VDCE/user_k/matrix_A.dat", 124_880)],
                outputs: vec![IoSpec::Dataflow],
            },
        };
        let json = serde_json::to_string(&node).unwrap();
        let back: TaskNode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, node);
    }
}
