//! Editor-equivalent construction DSL for Application Flow Graphs.
//!
//! [`AfgBuilder`] is the programmatic stand-in for the drag-and-drop web
//! Application Editor (§2): `add_task` drags an icon from a task library
//! onto the canvas, `connect` wires an output port marker to an input port
//! marker, and the `set_*` methods fill in the task-properties popup
//! (computation mode, number of nodes, machine preferences, file/URL I/O).
//! `build` validates the result exactly as the editor would before
//! shipping the AFG to the VDCE server.

use crate::graph::{Afg, Edge};
use crate::ids::{PortIndex, TaskId};
use crate::library::TaskLibrary;
use crate::task::{ComputationMode, IoSpec, MachineType, TaskNode, TaskProperties};
use crate::validate::{validate, ValidationError};
use std::collections::HashSet;
use std::fmt;

/// Errors raised while *constructing* an AFG (distinct from
/// [`ValidationError`], which covers whole-graph checks at `build` time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `add_task` referenced a library task that does not exist.
    UnknownLibraryTask(String),
    /// Two icons were given the same instance name.
    DuplicateTaskName(String),
    /// A task id passed to the builder does not belong to this graph.
    NoSuchTask(TaskId),
    /// A port index is outside the icon's declared port range.
    PortOutOfRange {
        /// Offending task.
        task: TaskId,
        /// Offending port.
        port: PortIndex,
        /// Whether an input port was addressed.
        input: bool,
        /// Number of ports the icon actually has on that side.
        available: usize,
    },
    /// An input port already has a producer (dataflow inputs are
    /// single-writer).
    InputPortOccupied(TaskId, PortIndex),
    /// `connect` targeted an input port the user already bound to a file or
    /// URL.
    InputPortBoundToIo(TaskId, PortIndex),
    /// `set_num_nodes(0)` or a parallel request on a non-parallelizable
    /// library task.
    InvalidNodeCount(TaskId, u32),
    /// Parallel mode requested for a library task with no parallel
    /// implementation.
    NotParallelizable(TaskId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownLibraryTask(n) => write!(f, "no task `{n}` in the library"),
            BuildError::DuplicateTaskName(n) => write!(f, "duplicate task instance name `{n}`"),
            BuildError::NoSuchTask(t) => write!(f, "task {t} does not exist"),
            BuildError::PortOutOfRange { task, port, input, available } => write!(
                f,
                "{} port {port} out of range on {task} ({available} available)",
                if *input { "input" } else { "output" }
            ),
            BuildError::InputPortOccupied(t, p) => {
                write!(f, "input port {p} of {t} already has a producer")
            }
            BuildError::InputPortBoundToIo(t, p) => {
                write!(f, "input port {p} of {t} is bound to file/URL I/O")
            }
            BuildError::InvalidNodeCount(t, n) => {
                write!(f, "invalid node count {n} for {t}")
            }
            BuildError::NotParallelizable(t) => {
                write!(f, "library task of {t} has no parallel implementation")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Afg`]s; see the module docs.
pub struct AfgBuilder<'lib> {
    library: &'lib TaskLibrary,
    afg: Afg,
    names: HashSet<String>,
    /// `true` for every (task, input port) that already has a producer.
    occupied_inputs: HashSet<(TaskId, PortIndex)>,
}

impl<'lib> AfgBuilder<'lib> {
    /// Start a new application named `name`, drawing icons from `library`.
    pub fn new(name: impl Into<String>, library: &'lib TaskLibrary) -> Self {
        AfgBuilder {
            library,
            afg: Afg::new(name),
            names: HashSet::new(),
            occupied_inputs: HashSet::new(),
        }
    }

    /// Drag the library task `library_task` onto the canvas as an icon
    /// named `instance_name`, with kernel problem size `problem_size`.
    ///
    /// Ports are initialised to `dataflow` on both sides, matching the
    /// editor's behaviour before the user opens the properties popup.
    pub fn add_task(
        &mut self,
        library_task: &str,
        instance_name: &str,
        problem_size: u64,
    ) -> Result<TaskId, BuildError> {
        let entry = self
            .library
            .get(library_task)
            .ok_or_else(|| BuildError::UnknownLibraryTask(library_task.to_string()))?;
        if !self.names.insert(instance_name.to_string()) {
            return Err(BuildError::DuplicateTaskName(instance_name.to_string()));
        }
        let id = TaskId(self.afg.tasks.len() as u32);
        self.afg.tasks.push(TaskNode {
            id,
            name: instance_name.into(),
            library_task: entry.name.clone(),
            kernel: entry.kernel,
            problem_size,
            props: TaskProperties {
                inputs: vec![IoSpec::Dataflow; entry.in_ports as usize],
                outputs: vec![IoSpec::Dataflow; entry.out_ports as usize],
                ..TaskProperties::default()
            },
        });
        Ok(id)
    }

    fn check_task(&self, id: TaskId) -> Result<&TaskNode, BuildError> {
        self.afg.get_task(id).ok_or(BuildError::NoSuchTask(id))
    }

    /// Wire output port `from_port` of `from` to input port `to_port` of
    /// `to`. The edge's transfer size is the producing library entry's
    /// communication size at the producer's problem size.
    pub fn connect(
        &mut self,
        from: TaskId,
        from_port: impl Into<PortIndex>,
        to: TaskId,
        to_port: impl Into<PortIndex>,
    ) -> Result<(), BuildError> {
        let (from_port, to_port) = (from_port.into(), to_port.into());
        let src = self.check_task(from)?;
        if from_port.index() >= src.out_ports() {
            return Err(BuildError::PortOutOfRange {
                task: from,
                port: from_port,
                input: false,
                available: src.out_ports(),
            });
        }
        let data_size = self
            .library
            .get(&src.library_task)
            .map(|e| e.output_size(src.problem_size))
            .unwrap_or(0);
        let dst = self.check_task(to)?;
        if to_port.index() >= dst.in_ports() {
            return Err(BuildError::PortOutOfRange {
                task: to,
                port: to_port,
                input: true,
                available: dst.in_ports(),
            });
        }
        if !dst.props.inputs[to_port.index()].is_dataflow() {
            return Err(BuildError::InputPortBoundToIo(to, to_port));
        }
        if !self.occupied_inputs.insert((to, to_port)) {
            return Err(BuildError::InputPortOccupied(to, to_port));
        }
        self.afg.edges.push(Edge { from, from_port, to, to_port, data_size });
        Ok(())
    }

    /// Set the computational mode. Requesting [`ComputationMode::Parallel`]
    /// on a library task with no parallel implementation is an error.
    pub fn set_mode(&mut self, task: TaskId, mode: ComputationMode) -> Result<(), BuildError> {
        let lib_task = self.check_task(task)?.library_task.clone();
        if mode == ComputationMode::Parallel {
            let ok = self.library.get(&lib_task).map(|e| e.parallelizable).unwrap_or(false);
            if !ok {
                return Err(BuildError::NotParallelizable(task));
            }
        }
        self.afg.tasks[task.index()].props.mode = mode;
        Ok(())
    }

    /// Set the requested number of nodes for a parallel implementation.
    pub fn set_num_nodes(&mut self, task: TaskId, nodes: u32) -> Result<(), BuildError> {
        self.check_task(task)?;
        if nodes == 0 {
            return Err(BuildError::InvalidNodeCount(task, 0));
        }
        self.afg.tasks[task.index()].props.num_nodes = nodes;
        Ok(())
    }

    /// Set the preferred machine type (`<any>` by default).
    pub fn set_machine_type(&mut self, task: TaskId, ty: MachineType) -> Result<(), BuildError> {
        self.check_task(task)?;
        self.afg.tasks[task.index()].props.machine_type = ty;
        Ok(())
    }

    /// Pin the task to a concrete preferred machine.
    pub fn set_preferred_host(
        &mut self,
        task: TaskId,
        host: impl Into<String>,
    ) -> Result<(), BuildError> {
        self.check_task(task)?;
        self.afg.tasks[task.index()].props.preferred_host = Some(host.into());
        Ok(())
    }

    /// Bind an input port to a file or URL (instead of dataflow). Fails if
    /// the port already has a dataflow producer.
    pub fn set_input(
        &mut self,
        task: TaskId,
        port: impl Into<PortIndex>,
        spec: IoSpec,
    ) -> Result<(), BuildError> {
        let port = port.into();
        let t = self.check_task(task)?;
        if port.index() >= t.in_ports() {
            return Err(BuildError::PortOutOfRange {
                task,
                port,
                input: true,
                available: t.in_ports(),
            });
        }
        if !spec.is_dataflow() && self.occupied_inputs.contains(&(task, port)) {
            return Err(BuildError::InputPortOccupied(task, port));
        }
        self.afg.tasks[task.index()].props.inputs[port.index()] = spec;
        Ok(())
    }

    /// Bind an output port to a file or URL destination (in addition to any
    /// dataflow consumers).
    pub fn set_output(
        &mut self,
        task: TaskId,
        port: impl Into<PortIndex>,
        spec: IoSpec,
    ) -> Result<(), BuildError> {
        let port = port.into();
        let t = self.check_task(task)?;
        if port.index() >= t.out_ports() {
            return Err(BuildError::PortOutOfRange {
                task,
                port,
                input: false,
                available: t.out_ports(),
            });
        }
        self.afg.tasks[task.index()].props.outputs[port.index()] = spec;
        Ok(())
    }

    /// Finish and validate the application, exactly as the editor validates
    /// before uploading the AFG to the VDCE server.
    pub fn build(self) -> Result<Afg, ValidationError> {
        validate(&self.afg)?;
        Ok(self.afg)
    }

    /// Finish without validation (for tests constructing invalid graphs).
    #[cfg(test)]
    pub(crate) fn build_unchecked(self) -> Afg {
        self.afg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> TaskLibrary {
        TaskLibrary::standard()
    }

    #[test]
    fn add_task_assigns_dense_ids_and_default_ports() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let a = b.add_task("Source", "src", 100).unwrap();
        let m = b.add_task("Matrix_Multiplication", "mm", 64).unwrap();
        assert_eq!(a, TaskId(0));
        assert_eq!(m, TaskId(1));
        let g = b.build_unchecked();
        assert_eq!(g.task(m).in_ports(), 2);
        assert_eq!(g.task(m).out_ports(), 1);
        assert!(g.task(m).props.inputs.iter().all(IoSpec::is_dataflow));
    }

    #[test]
    fn unknown_library_task_is_rejected() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        assert_eq!(
            b.add_task("Quantum_Annealer", "q", 1),
            Err(BuildError::UnknownLibraryTask("Quantum_Annealer".into()))
        );
    }

    #[test]
    fn duplicate_instance_names_are_rejected() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        b.add_task("Source", "x", 1).unwrap();
        assert_eq!(b.add_task("Sink", "x", 1), Err(BuildError::DuplicateTaskName("x".into())));
    }

    #[test]
    fn connect_fills_data_size_from_library_model() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let s = b.add_task("Source", "s", 1000).unwrap();
        let k = b.add_task("Sink", "k", 1000).unwrap();
        b.connect(s, 0, k, 0).unwrap();
        let g = b.build().unwrap();
        // Source output_bytes = 8 * n
        assert_eq!(g.edges[0].data_size, 8000);
    }

    #[test]
    fn connect_rejects_out_of_range_ports() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        assert!(matches!(
            b.connect(s, 1, k, 0),
            Err(BuildError::PortOutOfRange { input: false, .. })
        ));
        assert!(matches!(
            b.connect(s, 0, k, 5),
            Err(BuildError::PortOutOfRange { input: true, .. })
        ));
    }

    #[test]
    fn input_port_is_single_writer() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let s1 = b.add_task("Source", "s1", 10).unwrap();
        let s2 = b.add_task("Source", "s2", 10).unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.connect(s1, 0, k, 0).unwrap();
        assert_eq!(b.connect(s2, 0, k, 0), Err(BuildError::InputPortOccupied(k, PortIndex(0))));
    }

    #[test]
    fn output_port_may_fan_out() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let k1 = b.add_task("Sink", "k1", 10).unwrap();
        let k2 = b.add_task("Sink", "k2", 10).unwrap();
        b.connect(s, 0, k1, 0).unwrap();
        b.connect(s, 0, k2, 0).unwrap();
        assert_eq!(b.afg.edge_count(), 2);
    }

    #[test]
    fn file_bound_input_cannot_also_receive_dataflow() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.set_input(k, 0, IoSpec::inline_file("/data/in.dat", 100)).unwrap();
        assert_eq!(b.connect(s, 0, k, 0), Err(BuildError::InputPortBoundToIo(k, PortIndex(0))));
    }

    #[test]
    fn dataflow_bound_input_cannot_be_rebound_to_file() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.connect(s, 0, k, 0).unwrap();
        assert_eq!(
            b.set_input(k, 0, IoSpec::inline_file("/data/in.dat", 100)),
            Err(BuildError::InputPortOccupied(k, PortIndex(0)))
        );
    }

    #[test]
    fn parallel_mode_requires_parallelizable_library_task() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let t = b.add_task("Matrix_Transpose", "tr", 64).unwrap();
        assert_eq!(b.set_mode(t, ComputationMode::Parallel), Err(BuildError::NotParallelizable(t)));
        let lu = b.add_task("LU_Decomposition", "lu", 64).unwrap();
        b.set_mode(lu, ComputationMode::Parallel).unwrap();
        b.set_num_nodes(lu, 2).unwrap();
        assert_eq!(b.afg.task(lu).props.effective_nodes(), 2);
    }

    #[test]
    fn zero_node_count_is_rejected() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let t = b.add_task("Map", "m", 8).unwrap();
        assert_eq!(b.set_num_nodes(t, 0), Err(BuildError::InvalidNodeCount(t, 0)));
    }

    #[test]
    fn property_setters_reach_the_node() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let t = b.add_task("Map", "m", 8).unwrap();
        b.set_machine_type(t, MachineType::SunSolaris).unwrap();
        b.set_preferred_host(t, "hunding.top.cis.syr.edu").unwrap();
        b.set_output(t, 0, IoSpec::inline_file("/users/VDCE/u/x.dat", 0)).unwrap();
        let g = b.build_unchecked();
        let p = &g.task(t).props;
        assert_eq!(p.machine_type, MachineType::SunSolaris);
        assert_eq!(p.preferred_host.as_deref(), Some("hunding.top.cis.syr.edu"));
        assert_eq!(p.outputs[0], IoSpec::inline_file("/users/VDCE/u/x.dat", 0));
    }

    #[test]
    fn setters_reject_unknown_tasks() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        let ghost = TaskId(9);
        assert_eq!(b.set_num_nodes(ghost, 2), Err(BuildError::NoSuchTask(ghost)));
        assert_eq!(b.set_machine_type(ghost, MachineType::Any), Err(BuildError::NoSuchTask(ghost)));
    }

    #[test]
    fn build_runs_validation() {
        let lib = lib();
        let mut b = AfgBuilder::new("app", &lib);
        // A sink whose only input stays unbound dataflow → validation error.
        b.add_task("Sink", "k", 10).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = BuildError::InputPortOccupied(TaskId(1), PortIndex(0));
        assert!(e.to_string().contains("already has a producer"));
    }
}
