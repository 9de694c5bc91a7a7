//! Whole-graph validation of Application Flow Graphs.
//!
//! The Application Editor refuses to upload ill-formed applications; this
//! module is that gate. It checks structural invariants (dense ids, unique
//! names, port ranges, acyclicity) and the paper's dataflow discipline: an
//! input marked `dataflow` must be fed by exactly one parent edge, and an
//! input bound to a file or URL must not receive any edge (§2, Figure 1).

use crate::graph::Afg;
use crate::ids::{PortIndex, TaskId};
use std::collections::HashSet;
use std::fmt;

/// Reasons an AFG is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// `tasks[i].id != TaskId(i)`.
    IdMismatch {
        /// Position in the task vector.
        position: usize,
        /// Id actually stored there.
        found: TaskId,
    },
    /// Two tasks share an instance name.
    DuplicateName(String),
    /// An edge endpoint references a task that does not exist.
    DanglingEdge {
        /// The missing task.
        task: TaskId,
    },
    /// An edge endpoint references a port outside the task's declared
    /// range.
    PortOutOfRange {
        /// Task with the bad port.
        task: TaskId,
        /// The port.
        port: PortIndex,
        /// Whether it is an input port.
        input: bool,
    },
    /// The graph has a cycle.
    Cyclic,
    /// An input port has more than one producing edge.
    MultipleProducers {
        /// Consuming task.
        task: TaskId,
        /// Input port.
        port: PortIndex,
    },
    /// An input port marked `dataflow` has no producing edge, so the task
    /// could never start.
    UnboundDataflowInput {
        /// Task with the dangling input.
        task: TaskId,
        /// Input port.
        port: PortIndex,
    },
    /// An edge feeds an input port bound to file/URL I/O.
    EdgeIntoIoInput {
        /// Consuming task.
        task: TaskId,
        /// Input port.
        port: PortIndex,
    },
    /// A task requests zero nodes.
    ZeroNodes(TaskId),
    /// The graph has no tasks at all.
    Empty,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::IdMismatch { position, found } => {
                write!(f, "task at position {position} carries id {found}")
            }
            ValidationError::DuplicateName(n) => write!(f, "duplicate task name `{n}`"),
            ValidationError::DanglingEdge { task } => {
                write!(f, "edge references unknown task {task}")
            }
            ValidationError::PortOutOfRange { task, port, input } => write!(
                f,
                "{} port {port} out of range on {task}",
                if *input { "input" } else { "output" }
            ),
            ValidationError::Cyclic => write!(f, "application flow graph has a cycle"),
            ValidationError::MultipleProducers { task, port } => {
                write!(f, "input port {port} of {task} has multiple producers")
            }
            ValidationError::UnboundDataflowInput { task, port } => {
                write!(f, "dataflow input port {port} of {task} has no producer")
            }
            ValidationError::EdgeIntoIoInput { task, port } => {
                write!(f, "edge feeds file/URL-bound input port {port} of {task}")
            }
            ValidationError::ZeroNodes(t) => write!(f, "task {t} requests zero nodes"),
            ValidationError::Empty => write!(f, "application has no tasks"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate an AFG; `Ok(())` means the graph is schedulable.
pub fn validate(afg: &Afg) -> Result<(), ValidationError> {
    if afg.tasks.is_empty() {
        return Err(ValidationError::Empty);
    }
    // Dense ids.
    for (i, t) in afg.tasks.iter().enumerate() {
        if t.id.index() != i {
            return Err(ValidationError::IdMismatch { position: i, found: t.id });
        }
    }
    // Unique names.
    let mut names = HashSet::with_capacity(afg.tasks.len());
    for t in &afg.tasks {
        if !names.insert(&*t.name) {
            return Err(ValidationError::DuplicateName(t.name.to_string()));
        }
    }
    // Node counts.
    for t in &afg.tasks {
        if t.props.num_nodes == 0 {
            return Err(ValidationError::ZeroNodes(t.id));
        }
    }
    // Edge endpoints and port ranges; producer multiplicity.
    let mut producers: HashSet<(TaskId, PortIndex)> = HashSet::with_capacity(afg.edges.len());
    for e in &afg.edges {
        let src = afg.get_task(e.from).ok_or(ValidationError::DanglingEdge { task: e.from })?;
        let dst = afg.get_task(e.to).ok_or(ValidationError::DanglingEdge { task: e.to })?;
        if e.from_port.index() >= src.out_ports() {
            return Err(ValidationError::PortOutOfRange {
                task: e.from,
                port: e.from_port,
                input: false,
            });
        }
        if e.to_port.index() >= dst.in_ports() {
            return Err(ValidationError::PortOutOfRange {
                task: e.to,
                port: e.to_port,
                input: true,
            });
        }
        if !dst.props.inputs[e.to_port.index()].is_dataflow() {
            return Err(ValidationError::EdgeIntoIoInput { task: e.to, port: e.to_port });
        }
        if !producers.insert((e.to, e.to_port)) {
            return Err(ValidationError::MultipleProducers { task: e.to, port: e.to_port });
        }
    }
    // Every dataflow input must have a producer.
    for t in &afg.tasks {
        for (i, spec) in t.props.inputs.iter().enumerate() {
            let port = PortIndex(i as u16);
            if spec.is_dataflow() && !producers.contains(&(t.id, port)) {
                return Err(ValidationError::UnboundDataflowInput { task: t.id, port });
            }
        }
    }
    // Acyclicity last (most expensive).
    if !afg.is_dag() {
        return Err(ValidationError::Cyclic);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AfgBuilder;
    use crate::graph::Edge;
    use crate::library::TaskLibrary;
    use crate::task::IoSpec;

    fn valid_chain() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("chain", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let m = b.add_task("Map", "m", 10).unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.connect(s, 0, m, 0).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build_unchecked()
    }

    #[test]
    fn valid_graph_passes() {
        assert_eq!(validate(&valid_chain()), Ok(()));
    }

    #[test]
    fn empty_graph_fails() {
        assert_eq!(validate(&Afg::new("x")), Err(ValidationError::Empty));
    }

    #[test]
    fn id_mismatch_is_detected() {
        let mut g = valid_chain();
        g.tasks[1].id = TaskId(5);
        assert!(matches!(validate(&g), Err(ValidationError::IdMismatch { position: 1, .. })));
    }

    #[test]
    fn duplicate_names_are_detected() {
        let mut g = valid_chain();
        g.tasks[1].name = "s".into();
        assert_eq!(validate(&g), Err(ValidationError::DuplicateName("s".into())));
    }

    #[test]
    fn dangling_edge_is_detected() {
        let mut g = valid_chain();
        g.edges[0].to = TaskId(99);
        assert_eq!(validate(&g), Err(ValidationError::DanglingEdge { task: TaskId(99) }));
    }

    #[test]
    fn port_out_of_range_is_detected() {
        let mut g = valid_chain();
        g.edges[0].to_port = PortIndex(7);
        assert!(matches!(validate(&g), Err(ValidationError::PortOutOfRange { input: true, .. })));
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = valid_chain();
        // Make room: give `s` a phantom input so the edge is port-legal.
        g.tasks[0].props.inputs.push(IoSpec::Dataflow);
        g.edges.push(Edge {
            from: TaskId(2),
            from_port: PortIndex(0),
            to: TaskId(0),
            to_port: PortIndex(0),
            data_size: 1,
        });
        // Sink `k` has out_ports == 0, so that edge is caught as a port
        // error before cycle detection — use m -> s instead.
        g.edges.pop();
        g.edges.push(Edge {
            from: TaskId(1),
            from_port: PortIndex(0),
            to: TaskId(0),
            to_port: PortIndex(0),
            data_size: 1,
        });
        assert_eq!(validate(&g), Err(ValidationError::Cyclic));
    }

    #[test]
    fn multiple_producers_are_detected() {
        let mut g = valid_chain();
        g.edges.push(g.edges[1]); // duplicate m -> k edge onto same port
        assert_eq!(
            validate(&g),
            Err(ValidationError::MultipleProducers { task: TaskId(2), port: PortIndex(0) })
        );
    }

    #[test]
    fn unbound_dataflow_input_is_detected() {
        let mut g = valid_chain();
        g.edges.remove(1); // k's input now dangles
        assert_eq!(
            validate(&g),
            Err(ValidationError::UnboundDataflowInput { task: TaskId(2), port: PortIndex(0) })
        );
    }

    #[test]
    fn file_bound_entry_inputs_are_fine() {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("io", &lib);
        let m = b.add_task("Map", "m", 10).unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.set_input(m, 0, IoSpec::inline_file("/in.dat", 80)).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        assert_eq!(validate(&b.build_unchecked()), Ok(()));
    }

    #[test]
    fn edge_into_io_bound_input_is_detected() {
        let mut g = valid_chain();
        g.tasks[2].props.inputs[0] = IoSpec::inline_file("/in.dat", 80);
        assert_eq!(
            validate(&g),
            Err(ValidationError::EdgeIntoIoInput { task: TaskId(2), port: PortIndex(0) })
        );
    }

    #[test]
    fn zero_nodes_is_detected() {
        let mut g = valid_chain();
        g.tasks[0].props.num_nodes = 0;
        assert_eq!(validate(&g), Err(ValidationError::ZeroNodes(TaskId(0))));
    }

    #[test]
    fn display_messages_mention_the_task() {
        let e = ValidationError::UnboundDataflowInput { task: TaskId(4), port: PortIndex(1) };
        assert!(e.to_string().contains("t4"));
        assert!(e.to_string().contains("p1"));
    }
}
