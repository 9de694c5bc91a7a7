//! The ten paper experiments, one function each: the first entries of
//! the [experiment registry](crate::exp).
//!
//! | name   | paper artefact | what it prints |
//! |--------|----------------|----------------|
//! | `fig1` | Figure 1       | Linear Equation Solver AFG + property sheets + end-to-end run |
//! | `fig2` | Figure 2       | site-scheduler makespan vs k and vs CCR |
//! | `fig3` | Figure 3       | host-selection quality vs pool size and heterogeneity |
//! | `fig4` | Figure 4       | monitoring traffic reduction + failure-detection latency |
//! | `e5`   | §3 claim       | priority-order and algorithm ablation |
//! | `e6`   | §4.2 claim     | Data-Manager latency/throughput, in-proc vs TCP |
//! | `e7`   | §4.1 claim     | threshold rescheduling under load spikes |
//! | `e8`   | §3 claim       | prediction accuracy and placement regret |
//! | `e9`   | future work    | HEFT vs VDCE greedy |
//! | `e10`  | §5 future work | DSM coherence traffic vs page size |
//!
//! EXPERIMENTS.md holds each experiment's output in a generated block
//! ([`block`], written by [`splice`]). A [deterministic](Experiment::deterministic)
//! experiment prints the same bytes on every run, so its block is golden
//! text. The others measure real work; what EXPERIMENTS.md claims about
//! their shape is checked on every run as [`Outcome::broken_claims`].
//!
//! [`Outcome::broken_claims`]: crate::exp::Outcome::broken_claims

use crate::exp::{Claims, Experiment, Output};
use vdce_afg::Afg;
use vdce_net::model::NetworkModel;
use vdce_sched::view::SiteView;
use vdce_sim::{compare_schedulers, geomean, SchedulerKind};

mod e10;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;
mod fig1;
mod fig2;
mod fig3;
mod fig4;

/// The file that holds the paper experiments' blocks.
const DOC: &str = "EXPERIMENTS.md";

/// The ten paper experiments, in EXPERIMENTS.md order.
pub static EXPERIMENTS: [Experiment; 10] = [
    Experiment { name: "fig1", deterministic: false, output: Output::Block(DOC, fig1::run) },
    Experiment { name: "fig2", deterministic: true, output: Output::Block(DOC, fig2::run) },
    Experiment { name: "fig3", deterministic: false, output: Output::Block(DOC, fig3::run) },
    Experiment { name: "fig4", deterministic: true, output: Output::Block(DOC, fig4::run) },
    Experiment { name: "e5", deterministic: true, output: Output::Block(DOC, e5::run) },
    Experiment { name: "e6", deterministic: false, output: Output::Block(DOC, e6::run) },
    Experiment { name: "e7", deterministic: false, output: Output::Block(DOC, e7::run) },
    Experiment { name: "e8", deterministic: false, output: Output::Block(DOC, e8::run) },
    Experiment { name: "e9", deterministic: true, output: Output::Block(DOC, e9::run) },
    Experiment { name: "e10", deterministic: false, output: Output::Block(DOC, e10::run) },
];

/// The geomean makespan of each of `kinds` over `dags`, scheduled from
/// `local` with `remotes` as the other sites.
fn geomean_makespans(
    dags: impl IntoIterator<Item = Afg>,
    (local, remotes): (&SiteView, &[SiteView]),
    net: &NetworkModel,
    kinds: &[SchedulerKind],
) -> Vec<f64> {
    let mut spans = vec![Vec::new(); kinds.len()];
    for afg in dags {
        for (s, row) in spans.iter_mut().zip(compare_schedulers(&afg, local, remotes, net, kinds)) {
            s.push(row.makespan);
        }
    }
    spans.iter().map(|s| geomean(s).unwrap()).collect()
}

const BLOCK_END: &str = "<!-- /exp -->";

fn block_start(name: &str) -> String {
    format!("<!-- exp {name} -->\n")
}

/// `text` as EXPERIMENTS.md holds it between an experiment's markers.
fn fenced(text: &str) -> String {
    format!("```text\n{text}```\n")
}

/// The byte range between `name`'s markers in `doc`.
fn block_range(doc: &str, name: &str) -> Option<std::ops::Range<usize>> {
    let start = doc.find(&block_start(name))? + block_start(name).len();
    let end = start + doc[start..].find(BLOCK_END)?;
    Some(start..end)
}

/// The report text of `name`'s generated block in `doc`, a Markdown file
/// (EXPERIMENTS.md, or DESIGN.md for `surface`).
pub fn block<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let fence = &doc[block_range(doc, name)?];
    fence.strip_prefix("```text\n")?.strip_suffix("```\n")
}

/// `doc` with `name`'s generated block replaced by `text`.
pub fn splice(doc: &str, name: &str, text: &str) -> Result<String, String> {
    let range = block_range(doc, name)
        .ok_or_else(|| format!("no `{}` … `{BLOCK_END}` block", block_start(name).trim_end()))?;
    Ok(format!("{}{}{}", &doc[..range.start], fenced(text), &doc[range.end..]))
}

/// The first line where `got` differs from `want`, with the line before
/// it; `None` when they are equal.
pub fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let i = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i)).unwrap_or(w.len());
    let context = i.checked_sub(1).map_or(String::new(), |j| format!("  {}\n", w[j]));
    let line = |v: &[&str]| v.get(i).map_or("<end>".to_string(), |l| l.to_string());
    Some(format!("line {}:\n{context}- {}\n+ {}", i + 1, line(&w), line(&g)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "# doc\n<!-- exp e9 -->\n```text\nold\n```\n<!-- /exp -->\nafter\n";

    #[test]
    fn splice_replaces_one_block_and_block_reads_it_back() {
        assert_eq!(block(DOC, "e9"), Some("old\n"));
        let new = splice(DOC, "e9", "new\ntable\n").unwrap();
        assert_eq!(block(&new, "e9"), Some("new\ntable\n"));
        assert!(new.starts_with("# doc\n") && new.ends_with("<!-- /exp -->\nafter\n"));
        assert_eq!(block(DOC, "e5"), None);
        assert!(splice(DOC, "e5", "x\n").unwrap_err().contains("exp e5"));
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_difference("a\nb\n", "a\nc\n").unwrap(), "line 2:\n  a\n- b\n+ c");
        assert_eq!(first_difference("a\n", "a\nb\n").unwrap(), "line 2:\n  a\n- <end>\n+ b");
    }
}
