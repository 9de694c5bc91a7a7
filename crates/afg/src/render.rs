//! Text rendering of the Application Editor's views.
//!
//! Reproduces Figure 1 of the paper as text: the *task properties window*
//! for any task, and an indented flow-graph listing of the whole
//! application. Used by experiment E1 (`exp fig1`) and the `vdce`
//! CLI.

use crate::graph::Afg;
use crate::ids::TaskId;
use crate::task::IoSpec;
use std::fmt::Write as _;

/// Render the task-properties window of one task, in the style of
/// Figure 1:
///
/// ```text
/// Task <LU_Decomposition>
///   Computation Type: <Parallel>
///   Number of Nodes: 2
///   Preferred Machine Type: <any>
///   Preferred Machine: <any>
///   Input: <1> </users/VDCE/user_k/matrix_A.dat, SIZE=124880>
///   Output: <2> <dataflow, dataflow>
/// ```
pub(crate) fn render_task_properties(afg: &Afg, id: TaskId) -> String {
    let t = afg.task(id);
    let mut s = String::new();
    let _ = writeln!(s, "Task <{}>", t.name);
    let _ = writeln!(s, "  Computation Type: <{}>", t.props.mode);
    let _ = writeln!(s, "  Number of Nodes: {}", t.props.effective_nodes());
    let _ = writeln!(s, "  Preferred Machine Type: {}", t.props.machine_type);
    let _ = writeln!(
        s,
        "  Preferred Machine: <{}>",
        t.props.preferred_host.as_deref().unwrap_or("any")
    );
    let _ = writeln!(s, "  Input: <{}> <{}>", t.props.inputs.len(), join_specs(&t.props.inputs));
    let _ = writeln!(s, "  Output: <{}> <{}>", t.props.outputs.len(), join_specs(&t.props.outputs));
    s
}

fn join_specs(specs: &[IoSpec]) -> String {
    specs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
}

/// Render the whole application flow graph as an indented listing in
/// topological order, one line per task with its dataflow edges:
///
/// ```text
/// APPLICATION <Linear Equation Solver>  (4 tasks, 4 edges)
///   [t0] LU_Decomposition  ->  t1(p0), t2(p0)
///   ...
/// ```
pub fn render_flow_graph(afg: &Afg) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "APPLICATION <{}>  ({} tasks, {} edges)",
        afg.name,
        afg.task_count(),
        afg.edge_count()
    );
    let order = afg.topo_order().unwrap_or_else(|| afg.task_ids().collect());
    for id in order {
        let t = afg.task(id);
        let outs: Vec<String> = afg
            .out_edges(id)
            .map(|e| format!("{}({}, {}B)", e.to, e.to_port, e.data_size))
            .collect();
        let arrow = if outs.is_empty() { String::from("(exit)") } else { outs.join(", ") };
        let _ = writeln!(s, "  [{}] {}  ->  {}", id, t.name, arrow);
    }
    s
}

/// Render every task-properties window of the application, separated by
/// rules — the full right-hand side of Figure 1.
pub fn render_all_properties(afg: &Afg) -> String {
    let mut s = String::new();
    for id in afg.task_ids() {
        s.push_str(&render_task_properties(afg, id));
        s.push_str("  ----------------------------------------\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AfgBuilder;
    use crate::library::TaskLibrary;
    use crate::task::{ComputationMode, IoSpec, MachineType};

    fn figure1_like() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("Linear Equation Solver", &lib);
        let lu = b.add_task("LU_Decomposition", "LU_Decomposition", 125).unwrap();
        let mm = b.add_task("Matrix_Multiplication", "Matrix_Multiplication", 125).unwrap();
        b.set_mode(lu, ComputationMode::Parallel).unwrap();
        b.set_num_nodes(lu, 2).unwrap();
        b.set_input(lu, 0, IoSpec::inline_file("/users/VDCE/user_k/matrix_A.dat", 124_880))
            .unwrap();
        b.set_machine_type(mm, MachineType::SunSolaris).unwrap();
        b.set_preferred_host(mm, "hunding.top.cis.syr.edu").unwrap();
        b.connect(lu, 0, mm, 0).unwrap();
        b.connect(lu, 1, mm, 1).unwrap();
        b.set_output(mm, 0, IoSpec::inline_file("/users/VDCE/user_k/vector_X.dat", 0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn properties_window_contains_figure1_fields() {
        let g = figure1_like();
        let lu = TaskId(0);
        let out = render_task_properties(&g, lu);
        assert!(out.contains("Task <LU_Decomposition>"));
        assert!(out.contains("Computation Type: <Parallel>"));
        assert!(out.contains("Number of Nodes: 2"));
        assert!(out.contains("Preferred Machine Type: <any>"));
        assert!(out.contains("matrix_A.dat, SIZE=124880"));
    }

    #[test]
    fn properties_window_shows_preferred_host() {
        let g = figure1_like();
        let mm = TaskId(1);
        let out = render_task_properties(&g, mm);
        assert!(out.contains("Preferred Machine: <hunding.top.cis.syr.edu>"));
        assert!(out.contains("Preferred Machine Type: <SUN solaris>"));
        assert!(out.contains("Computation Type: <Sequential>"));
        assert!(out.contains("dataflow, dataflow"));
    }

    #[test]
    fn flow_graph_lists_every_task_and_edge() {
        let g = figure1_like();
        let out = render_flow_graph(&g);
        assert!(out.contains("APPLICATION <Linear Equation Solver>  (2 tasks, 2 edges)"));
        assert!(out.contains("[t0] LU_Decomposition"));
        assert!(out.contains("(exit)"));
    }

    #[test]
    fn cyclic_graph_still_renders_in_id_order() {
        let mut g = figure1_like();
        g.edges.push(crate::graph::Edge {
            from: g.tasks[1].id,
            from_port: crate::ids::PortIndex(0),
            to: g.tasks[0].id,
            to_port: crate::ids::PortIndex(0),
            data_size: 1,
        });
        let out = render_flow_graph(&g); // must not panic on the cycle
        assert!(out.contains("[t0]"));
        assert!(out.contains("[t1]"));
    }

    #[test]
    fn render_all_properties_covers_all_tasks() {
        let g = figure1_like();
        let out = render_all_properties(&g);
        assert_eq!(out.matches("Task <").count(), g.task_count());
    }
}
