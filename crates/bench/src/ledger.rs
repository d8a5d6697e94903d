//! `REPRODUCTION.md`: what a full run reproduces of the paper, rendered from
//! the tables and the judged claims alone (no host name, time or duration),
//! so a second run writes the same bytes and CI can diff the committed file.

use crate::claims::Outcome;
use crate::experiments::Experiment;
use crate::report::Table;
use crate::Scale;

const HEADER: &str = "\
# What this repository reproduces of the paper

Written by `cargo run --release -p bench --bin experiments` when it has run
every experiment; do not edit. It holds no host name, time or duration, so a
second run writes the same bytes, and CI fails a change that moves a number
without committing the file that says so.

## Substitutions

The paper measures real buildings with real phones; this repository cannot
obtain that data, so:

- **Buildings** are the four `sim-radio` presets (path length, access-point
  count and wall materials follow the paper's description, the geometry is
  synthetic). Errors in metres are therefore shown beside the paper's and
  never asserted; what is judged is the paper's *orderings*.
- **Phones** are synthetic RF profiles (gain offset and slope, sensitivity
  floor, noise): the `tables_devices` table below.
- **WiDeep**'s Gaussian-process classifier is a Gaussian-kernel
  (Nadaraya–Watson) estimator over the autoencoder codes.
- **Models** have `VitalConfig::fast` widths on 24-pixel (`VITAL_SCALE=quick`)
  or 48-pixel (`full`) images, not the paper's 206; `VitalConfig::paper` is
  built for the footprint row only.
";

/// One experiment's part of the ledger (also what the binary prints): the
/// table, how it was produced, and the verdict of every claim about it.
pub fn section(scale: Scale, experiment: &Experiment, table: &Table) -> String {
    let seed = experiment.seed.map_or("none".into(), |s| s.to_string());
    let mut out = format!(
        "\n## {}\n\n`experiments {}` · config: {} · scale: {} · seed: {seed}\n\n{}",
        experiment.title,
        experiment.name,
        experiment.config,
        scale.name(),
        table.render(),
    );
    if !experiment.note.is_empty() {
        out += &format!("\n{}\n", experiment.note);
    }
    if !experiment.claims.is_empty() {
        out += "\n| claim | verdict | numbers |\n|---|---|---|\n";
    }
    for v in experiment.claims.iter().map(|c| c.evaluate(table)) {
        let (statement, outcome, numbers) = (v.statement, v.outcome.name(), v.numbers);
        out += &format!("| {statement} | {outcome} | {numbers} |\n");
    }
    out
}

/// Renders the ledger for a full run at `scale`.
pub fn render(scale: Scale, results: &[(&Experiment, Table)]) -> String {
    let (mut judged, mut missed) = (0, String::new());
    for (experiment, table) in results {
        for v in experiment.claims.iter().map(|c| c.evaluate(table)) {
            judged += usize::from(v.outcome != Outcome::Reference);
            if v.outcome == Outcome::NotReproduced {
                missed += &format!("- `{}`: {} — {}\n", experiment.name, v.statement, v.numbers);
            }
        }
    }
    let sections = results.iter().map(|(e, table)| section(scale, e, table));
    format!(
        "{HEADER}\n## Summary\n\nAt `VITAL_SCALE={}`, {} of the {judged} claims judged below are not \
         reproduced:\n\n{missed}{}",
        scale.name(),
        missed.lines().count(),
        sections.collect::<String>(),
    )
}
