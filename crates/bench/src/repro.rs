//! The experiment runner behind the `repro` binary.
//!
//! Every experiment writes into its own [`Artifacts`] sink: the table
//! text that becomes `results/<name>.txt`, plus any named files
//! (`BENCH_<x>.json`, `results/*.prom`, ...). Experiments never build a
//! path or print; the runner spreads them over the available cores, then
//! writes every sink under one root and prints repo-relative paths.
//! A gate that fails returns `Err`, and a panic counts as a failure too,
//! so one broken experiment never stops the others' artifacts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use pedal_deflate::pool;

/// What one experiment produced: its table text and its named files.
#[derive(Debug, Default)]
pub struct Artifacts {
    pub text: String,
    /// `(path relative to the repository root, contents)`.
    pub files: Vec<(String, String)>,
}

impl Artifacts {
    /// Append one line of table text.
    pub fn line(&mut self, s: &str) {
        self.text.push_str(s);
        self.text.push('\n');
    }

    /// Record a named file, as a path relative to the repository root.
    pub fn file(&mut self, path: impl Into<String>, contents: impl Into<String>) {
        self.files.push((path.into(), contents.into()));
    }
}

/// `outln!(out, "...", args)` appends one formatted line to an
/// [`Artifacts`] sink, the way `println!` writes to stdout.
#[macro_export]
macro_rules! outln {
    ($out:expr) => {
        $out.line("")
    };
    ($out:expr, $($arg:tt)*) => {
        $out.line(&format!($($arg)*))
    };
}

/// One experiment: its name (and `results/<name>.txt` stem) and its body.
pub type Experiment = (&'static str, fn(&mut Artifacts) -> Result<(), String>);

/// The experiments of `table` named in `names`, in table order; all of
/// them when `names` is empty. An unknown name is an error that lists
/// the valid ones.
pub fn select(table: &[Experiment], names: &[String]) -> Result<Vec<Experiment>, String> {
    if let Some(bad) = names.iter().find(|n| !table.iter().any(|(name, _)| name == n)) {
        let valid: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown experiment '{bad}'; valid names:\n  {}", valid.join("\n  ")));
    }
    Ok(table
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
        .copied()
        .collect())
}

/// Run `experiments` on up to `available_parallelism()` threads, then
/// write each one's `results/<name>.txt` and named files under `root`,
/// failed experiments included, printing each path relative to `root`.
/// Returns every failed experiment with its message.
///
/// With more than one thread the experiments run on
/// `pedal_deflate::pool` workers, so the split parses and wave encoders
/// inside them stay sequential while every core already runs an
/// experiment; the artifacts do not depend on it.
pub fn run(
    experiments: &[Experiment],
    root: &Path,
) -> std::io::Result<Vec<(&'static str, String)>> {
    let workers = pool::cores().min(experiments.len());
    // `next` only hands out indices (Relaxed is enough); each result is
    // published through its `OnceLock` and the scope's join.
    let next = AtomicUsize::new(0);
    let done: Vec<OnceLock<(Artifacts, Result<(), String>)>> =
        experiments.iter().map(|_| OnceLock::new()).collect();
    pool::fan_out(workers, workers, |_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(_, body)) = experiments.get(i) else { break };
        let mut out = Artifacts::default();
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut out))).unwrap_or_else(|p| {
            let msg = p.downcast_ref::<&str>().map(|s| s.to_string());
            let msg = msg.or_else(|| p.downcast_ref::<String>().cloned());
            Err(format!("panicked: {}", msg.unwrap_or_default()))
        });
        let _ = done[i].set((out, result));
    });

    let mut failures = Vec::new();
    for (&(name, _), slot) in experiments.iter().zip(done) {
        let (out, result) = slot.into_inner().expect("every experiment ran");
        let txt = (format!("results/{name}.txt"), out.text);
        for (rel, contents) in std::iter::once(txt).chain(out.files) {
            let path = root.join(&rel);
            std::fs::create_dir_all(path.parent().expect("a file path has a parent"))?;
            std::fs::write(&path, contents)?;
            println!("{rel}");
        }
        if let Err(e) = result {
            failures.push((name, e));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_a(out: &mut Artifacts) -> Result<(), String> {
        outln!(out, "a {}", 1);
        out.file("BENCH_a.json", "{}");
        Ok(())
    }

    fn gate_fails(out: &mut Artifacts) -> Result<(), String> {
        outln!(out, "partial");
        Err("gate missed".into())
    }

    fn panics(_: &mut Artifacts) -> Result<(), String> {
        panic!("boom")
    }

    fn ok_b(out: &mut Artifacts) -> Result<(), String> {
        outln!(out);
        out.file("results/b.prom", "x 1\n");
        Ok(())
    }

    const FAKE: &[Experiment] =
        &[("a", ok_a), ("gate", gate_fails), ("panic", panics), ("b", ok_b)];

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = crate::experiments::ALL.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), crate::experiments::ALL.len(), "duplicate experiment name");
    }

    #[test]
    fn unknown_name_is_rejected_with_the_valid_names() {
        let err = select(FAKE, &["a".into(), "nope".into()]).unwrap_err();
        assert!(err.contains("'nope'") && err.contains("\n  gate\n"), "{err}");
        let picked = select(FAKE, &["b".into(), "a".into()]).unwrap();
        assert_eq!(picked.iter().map(|(n, _)| *n).collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(select(FAKE, &[]).unwrap().len(), FAKE.len());
    }

    #[test]
    fn failing_experiments_do_not_stop_the_others_artifacts() {
        let root = std::env::temp_dir().join(format!("bench-repro-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let failures = run(FAKE, &root).expect("writes");
        let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
        assert_eq!(read("results/a.txt"), "a 1\n");
        assert_eq!(read("BENCH_a.json"), "{}");
        assert_eq!(read("results/b.txt"), "\n");
        assert_eq!(read("results/b.prom"), "x 1\n");
        assert_eq!(read("results/gate.txt"), "partial\n");
        assert_eq!(read("results/panic.txt"), "");
        assert_eq!(failures, [("gate", "gate missed".into()), ("panic", "panicked: boom".into())]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
