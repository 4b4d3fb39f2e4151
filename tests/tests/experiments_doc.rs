//! EXPERIMENTS.md cannot drift from `results/`: every number it quotes in
//! **bold** appears verbatim in the results file of its section. A section
//! names its file on its `→ results/<x>.txt` line; an ablation bullet names
//! it as `results/<x>.txt` or by its experiment, `` (`<experiment>` ``.

use std::collections::HashSet;
use std::path::Path;

/// The numbers written in `text` ("1.514", "40"). Digits glued to a word,
/// as in "A1" or "fig10", are names, not numbers.
fn numbers(text: &str) -> Vec<&str> {
    let b = text.as_bytes();
    let (mut out, mut i) = (Vec::new(), 0);
    while i < b.len() {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len()
            && (b[i].is_ascii_digit()
                || b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            i += 1;
        }
        if start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
            out.push(&text[start..i]);
        }
    }
    out
}

/// The results file a section or ablation bullet names.
fn named_file(block: &str) -> Option<String> {
    if let Some(at) = block.find("`results/") {
        let name = &block[at + 1..];
        return Some(name[..name.find('`')?].to_string());
    }
    let experiment = &block[block.find("(`")? + 2..];
    Some(format!("results/{}.txt", &experiment[..experiment.find('`')?]))
}

#[test]
fn every_bold_number_in_experiments_md_is_in_its_results_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let (mut checked, mut missing) = (0, Vec::new());
    for block in doc.split("\n## ").flat_map(|section| section.split("\n* ")) {
        let bold: Vec<&str> = block.split("**").skip(1).step_by(2).flat_map(numbers).collect();
        if bold.is_empty() {
            continue;
        }
        let heading = block.lines().next().unwrap_or_default();
        let file = named_file(block).unwrap_or_else(|| panic!("{heading:?} names no results file"));
        let text =
            std::fs::read_to_string(root.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let found: HashSet<&str> = numbers(&text).into_iter().collect();
        checked += bold.len();
        missing
            .extend(bold.iter().filter(|n| !found.contains(*n)).map(|n| format!("{n} in {file}")));
    }
    assert!(missing.is_empty(), "bold numbers of EXPERIMENTS.md not in their results: {missing:?}");
    assert!(
        checked >= 30,
        "only {checked} bold numbers found: is the scan still reading the tables?"
    );
}
