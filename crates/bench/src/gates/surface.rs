//! The `surface` block of DESIGN.md §4, read from the tree: each crate's
//! files with the first line of their `//!`, their non-test and `pub fn`
//! line counts, and the `pub fn`s no other package names.
//!
//! The counts follow the ROADMAP's conventions: a file's non-test lines
//! are its lines before its first `#[cfg(test)]`, and a `pub fn` line is
//! one matching `^\s*pub fn`. A `pub fn NAME` outside test code that its
//! crate defines once is named by no other package when no `.rs` file
//! outside `crates/<crate>/` holds `NAME` as a word (`target/` and hidden
//! directories are not read). The table lists the crate's own files
//! outside `src/` that name it: what keeps it `pub`.

use crate::exp::Claims;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One `.rs` file: its path from the tree's root, `/`-separated, and
/// its text.
struct Source {
    path: String,
    text: String,
}

impl Source {
    /// Its lines before its first `#[cfg(test)]`.
    fn non_test(&self) -> impl Iterator<Item = &str> {
        self.text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
    }
}

/// The block for the workspace this crate was built in, whatever the
/// working directory.
pub(crate) fn run(claims: &mut Claims) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    render(&root).unwrap_or_else(|e| {
        claims.fail(e);
        String::new()
    })
}

/// One crate: its directory under `crates/`, its package name, and each
/// `pub fn` it defines once outside test code, by name, with the item
/// and its file under `src/`.
struct Crate<'a> {
    dir: String,
    package: String,
    once: BTreeMap<&'a str, (String, &'a str)>,
}

/// The block for the tree at `root`: the per-crate totals, each crate's
/// files, and the `pub fn`s no other package names.
pub(crate) fn render(root: &Path) -> Result<String, String> {
    let mut sources = Vec::new();
    read_sources(root, "", &mut sources)?;
    let mut totals = vec![cells(["crate", "files", "non-test lines", "pub fn"])];
    let mut files =
        vec![cells(["crate", "file", "non-test lines", "pub fn", "first line of its //!"])];
    let (mut crates, mut sum) = (Vec::new(), [0; 3]);
    for (dir, package) in crate_dirs(root)? {
        let src = format!("crates/{dir}/src/");
        // Files, non-test lines, `pub fn` lines.
        let mut count = [0; 3];
        let mut defined: BTreeMap<&str, Vec<(String, &str)>> = BTreeMap::new();
        for s in sources.iter().filter(|s| s.path.starts_with(&src)) {
            let file = &s.path[src.len()..];
            let lines = s.non_test().count();
            let pub_fn = s.text.lines().filter(|l| l.trim_start().starts_with("pub fn")).count();
            let doc = s.text.lines().find_map(|l| l.trim_start().strip_prefix("//!"));
            let shown = if count[0] == 0 { package.as_str() } else { "" };
            let (lines_cell, pub_fn_cell) = (lines.to_string(), pub_fn.to_string());
            files.push(cells([shown, file, &lines_cell, &pub_fn_cell, doc.unwrap_or("").trim()]));
            count = [count[0] + 1, count[1] + lines, count[2] + pub_fn];
            for (name, item) in pub_fns(s.non_test()) {
                defined.entry(name).or_default().push((item, file));
            }
        }
        totals.push(counted(&package, count));
        sum = [sum[0] + count[0], sum[1] + count[1], sum[2] + count[2]];
        let once = defined
            .into_iter()
            .filter(|(_, defs)| defs.len() == 1)
            .map(|(name, mut defs)| (name, defs.swap_remove(0)))
            .collect();
        crates.push(Crate { dir, package, once });
    }
    totals.push(counted("workspace", sum));
    let own = crate_only_pub_fns(&sources, &crates);
    Ok([table(&totals, &[1, 2, 3]), table(&files, &[2, 3]), table(&own, &[])].join("\n"))
}

/// A totals row: a name with its file, non-test line and `pub fn` counts.
fn counted(name: &str, [files, lines, pub_fn]: [usize; 3]) -> Vec<String> {
    cells([name, &files.to_string(), &lines.to_string(), &pub_fn.to_string()])
}

/// The table of the `pub fn`s each crate defines once and no `.rs` file
/// outside its directory names, with the crate's files outside `src/`
/// that do.
fn crate_only_pub_fns(sources: &[Source], crates: &[Crate<'_>]) -> Vec<Vec<String>> {
    let names: BTreeSet<&str> = crates.iter().flat_map(|c| c.once.keys().copied()).collect();
    let mut named_in: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for s in sources {
        let words: BTreeSet<&str> =
            s.text.split(|c: char| !(c.is_alphanumeric() || c == '_')).collect();
        for &word in words.intersection(&names) {
            named_in.entry(word).or_default().push(&s.path);
        }
    }
    let mut rows = vec![cells(["crate", "pub fn", "in", "named outside src/ only by"])];
    for c in crates {
        let (home, src) = (format!("crates/{}/", c.dir), format!("crates/{}/src/", c.dir));
        for (name, (item, file)) in &c.once {
            let by = named_in.get(name).map_or(&[][..], Vec::as_slice);
            if by.iter().all(|p| p.starts_with(&home)) {
                let outside: Vec<&str> =
                    by.iter().filter(|p| !p.starts_with(&src)).map(|p| &p[home.len()..]).collect();
                let outside =
                    if outside.is_empty() { "(nothing)".to_string() } else { outside.join(", ") };
                rows.push(cells([&c.package, item, file, &outside]));
            }
        }
    }
    rows
}

fn cells<const N: usize>(row: [&str; N]) -> Vec<String> {
    row.iter().map(|c| c.to_string()).collect()
}

/// `rows` as columns two spaces apart, the `right` ones right-aligned,
/// with no trailing spaces.
fn table(rows: &[Vec<String>], right: &[usize]) -> String {
    let mut width = vec![0; rows[0].len()];
    for row in rows {
        for (w, cell) in width.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&width)
            .enumerate()
            .map(
                |(i, (cell, &w))| {
                    if right.contains(&i) {
                        format!("{cell:>w$}")
                    } else {
                        format!("{cell:<w$}")
                    }
                },
            )
            .collect();
        out += line.join("  ").trim_end();
        out.push('\n');
    }
    out
}

/// Every `.rs` file under `root/rel`, in path order, skipping `target`
/// and hidden directories.
fn read_sources(root: &Path, rel: &str, out: &mut Vec<Source>) -> Result<(), String> {
    let dir = root.join(rel);
    let read = |e: std::io::Error| format!("read {}: {e}", dir.display());
    let mut entries: Vec<_> =
        std::fs::read_dir(&dir).map_err(read)?.collect::<Result<_, _>>().map_err(read)?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let Ok(name) = entry.file_name().into_string() else { continue };
        let path = if rel.is_empty() { name.clone() } else { format!("{rel}/{name}") };
        if entry.file_type().map_err(read)?.is_dir() {
            if name != "target" && !name.starts_with('.') {
                read_sources(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(entry.path()).map_err(read)?;
            out.push(Source { path, text });
        }
    }
    Ok(())
}

/// Each directory under `root/crates` with its package name, in
/// directory order.
fn crate_dirs(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut found = Vec::new();
    let dir = root.join("crates");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let Ok(manifest) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        let package = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .map(|n| n.trim().trim_matches('"').to_string());
        if let (Ok(dir), Some(package)) = (entry.file_name().into_string(), package) {
            found.push((dir, package));
        }
    }
    found.sort();
    Ok(found)
}

/// Each `pub fn` in `lines`, by name, with the type of the `impl` block
/// it sits in: `Type::name`, or `name` outside one.
fn pub_fns<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<(&'a str, String)> {
    let mut found = Vec::new();
    // The open `impl` blocks: each one's indent and type.
    let mut impls: Vec<(usize, &str)> = Vec::new();
    for line in lines {
        let body = line.trim_start();
        let indent = line.len() - body.len();
        if let Some(head) = body.strip_prefix("impl").filter(|h| h.starts_with(['<', ' '])) {
            if !body.ends_with('}') {
                impls.push((indent, impl_type(head)));
            }
        } else if body == "}" && impls.last().is_some_and(|&(at, _)| at == indent) {
            impls.pop();
        } else if let Some(rest) = body.strip_prefix("pub fn ") {
            let name = &rest
                [..rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len())];
            let item = match impls.last() {
                Some((_, ty)) => format!("{ty}::{name}"),
                None => name.to_string(),
            };
            found.push((name, item));
        }
    }
    found
}

/// The type an `impl` line implements for, without its path or
/// generics, from what follows `impl`.
fn impl_type(head: &str) -> &str {
    let mut rest = head;
    if head.starts_with('<') {
        let (mut depth, mut prev) = (0, ' ');
        for (i, c) in head.char_indices() {
            match c {
                '<' => depth += 1,
                '>' if prev != '-' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                rest = &head[i + 1..];
                break;
            }
            prev = c;
        }
    }
    let ty = rest.rsplit(" for ").next().unwrap_or(rest).trim_start();
    let ty = ty.split(['<', ' ', '{']).next().unwrap_or(ty);
    ty.rsplit("::").next().unwrap_or(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{drive, write_file, Experiment, Mode, Output};
    use std::path::PathBuf;

    /// The scratch tree the check below runs against.
    fn tree() -> PathBuf {
        std::env::temp_dir().join(format!("vdce-bench-surface-{}", std::process::id()))
    }

    /// The `surface` entry, scanning the scratch tree.
    static AT_TREE: Experiment = Experiment {
        name: "surface",
        deterministic: true,
        output: Output::Block("DESIGN.md", |_| render(&tree()).expect("the scratch tree reads")),
    };

    /// `drive`'s failures for the `surface` entry against the scratch
    /// tree (a check there also reports every `BENCH_*.json` missing).
    fn drive_surface(mode: Mode) -> Vec<String> {
        let failures = drive(mode, &[&AT_TREE], &tree(), &mut Vec::new());
        failures.into_iter().filter(|f| f.starts_with("surface")).collect()
    }

    #[test]
    fn a_new_pub_fn_fails_the_check_until_it_is_written() {
        let root = tree();
        let _ = std::fs::remove_dir_all(&root);
        let a = root.join("crates/a/src/lib.rs");
        write_file(root.join("crates/a/Cargo.toml"), "[package]\nname = \"vdce-a\"\n").unwrap();
        write_file(&a, "//! Crate a.\npub fn one() {}\n").unwrap();
        write_file(root.join("crates/b/Cargo.toml"), "[package]\nname = \"vdce-b\"\n").unwrap();
        write_file(root.join("crates/b/src/lib.rs"), "//! Crate b, which names `one`.\n").unwrap();
        write_file(root.join("DESIGN.md"), "## 4\n<!-- exp surface -->\n<!-- /exp -->\n").unwrap();
        assert_eq!(drive_surface(Mode::Check), ["surface: no generated block in DESIGN.md"]);
        assert_eq!(drive_surface(Mode::Write), Vec::<String>::new());
        assert_eq!(drive_surface(Mode::Check), Vec::<String>::new());

        write_file(&a, "//! Crate a.\npub fn one() {}\npub fn two() {}\n").unwrap();
        let failure = drive_surface(Mode::Check);
        let want = "surface: differs from DESIGN.md, line 2:\n  crate      files  non-test lines  pub fn\n\
                    - vdce-a         1               2       1\n\
                    + vdce-a         1               3       2";
        assert_eq!(failure, [want]);
        assert_eq!(drive_surface(Mode::Write), Vec::<String>::new());
        assert_eq!(drive_surface(Mode::Check), Vec::<String>::new());
        let doc = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
        let own = "crate   pub fn  in      named outside src/ only by\n\
                   vdce-a  two     lib.rs  (nothing)\n```\n<!-- /exp -->\n";
        assert!(doc.starts_with("## 4\n<!-- exp surface -->\n```text\n") && doc.ends_with(own));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn methods_carry_their_impl_type() {
        let text = "pub fn free() {}\nimpl<T: Fn() -> u8> Wrap<T> {\n    pub fn get(&self) {}\n}\n\
                    impl fmt::Display for a::Shown {\n    fn fmt() {}\n}\npub fn after() {}\n";
        let items: Vec<String> = pub_fns(text.lines()).into_iter().map(|(_, item)| item).collect();
        assert_eq!(items, ["free", "Wrap::get", "after"]);
        assert_eq!(impl_type("<'a> Iterator for Rows<'a> {"), "Rows");
    }
}
