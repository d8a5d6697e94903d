//! `experiments [NAME]... [--checkpoint-dir DIR]`: runs the named
//! experiments of the paper's evaluation (all of them when none is named),
//! prints each table with the verdict of every claim the paper makes about
//! it, writes `target/experiments/<name>.csv`, and — after a run of all of
//! them — rewrites `REPRODUCTION.md`.

#![forbid(unsafe_code)]

use std::error::Error;
use std::process::ExitCode;

use bench::experiments::{Experiment, Problem, EXPERIMENTS};
use bench::runner::CheckpointStore;
use bench::{ledger, Scale};

/// A validated command line.
#[derive(Debug)]
struct Options {
    experiments: Vec<&'static Experiment>,
    scale: Scale,
    store: CheckpointStore,
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: experiments [NAME]... [--checkpoint-dir DIR]\n\
         \x20 VITAL_SCALE=quick|full selects the training budget (default quick)\n\
         \x20 no NAME runs every experiment and rewrites REPRODUCTION.md\n\
         experiments:\n  {}",
        names.join("\n  ")
    )
}

/// Parses the arguments after the program name and the value of
/// `VITAL_SCALE`; anything unrecognised is an error, never a default.
fn parse_args(
    mut args: impl Iterator<Item = String>,
    scale: Option<&str>,
) -> Result<Options, String> {
    let scale = Scale::parse(scale)?;
    let mut names = Vec::new();
    let mut store = CheckpointStore::default();
    while let Some(arg) = args.next() {
        if arg == "--checkpoint-dir" {
            let dir = args.next().ok_or("--checkpoint-dir requires a directory")?;
            store = CheckpointStore::new(dir);
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag {arg}"));
        } else if EXPERIMENTS.iter().any(|e| e.name == arg) {
            names.push(arg);
        } else {
            return Err(format!("unknown experiment {arg}"));
        }
    }
    let experiments = EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
        .collect();
    Ok(Options {
        experiments,
        scale,
        store,
    })
}

fn run(options: Options) -> Result<(), Box<dyn Error>> {
    let buildings = sim_radio::benchmark_buildings();
    let mut problem = Problem::new(options.scale, buildings, options.store);
    let mut results = Vec::new();
    for experiment in options.experiments {
        let table = (experiment.run)(&mut problem, experiment.seed.unwrap_or(0))
            .map_err(|e| format!("{}: {e}", experiment.name))?;
        println!("{}", ledger::section(options.scale, experiment, &table));
        println!("written {}", table.write_csv(experiment.name)?.display());
        results.push((experiment, table));
    }
    if results.len() == EXPERIMENTS.len() {
        std::fs::write("REPRODUCTION.md", ledger::render(options.scale, &results))?;
        println!("\nwritten REPRODUCTION.md");
    }
    Ok(())
}

fn main() -> ExitCode {
    let scale = std::env::var("VITAL_SCALE").ok();
    let options = match parse_args(std::env::args().skip(1), scale.as_deref()) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // A failed experiment fails the run: no partial table, and the ledger is
    // left as it was.
    if let Err(e) = run(options) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], scale: Option<&str>) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()), scale)
    }

    #[test]
    fn arguments_are_validated_not_defaulted() {
        let all = parse(&[], None).unwrap();
        assert_eq!(all.experiments.len(), EXPERIMENTS.len());
        assert_eq!(all.scale, Scale::Quick);
        assert!(all.store.path_for("key").is_none());

        // Named experiments run in the table's order, once each.
        let named = parse(
            &[
                "fig9_dam_ablation",
                "--checkpoint-dir",
                "ckpts",
                "fig1_rssi_heterogeneity",
                "fig9_dam_ablation",
            ],
            Some("full"),
        )
        .unwrap();
        let names: Vec<&str> = named.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig1_rssi_heterogeneity", "fig9_dam_ablation"]);
        assert_eq!(named.scale, Scale::Full);
        let path = named.store.path_for("key").unwrap();
        assert_eq!(path, std::path::Path::new("ckpts").join("key.vckpt"));

        let error = |args: &[&str], scale| parse(args, scale).unwrap_err();
        assert_eq!(error(&["fig11"], None), "unknown experiment fig11");
        assert_eq!(
            error(&["--checkpoint-dir=ckpts"], None),
            "unknown flag --checkpoint-dir=ckpts"
        );
        assert_eq!(
            error(&["--only", "fig8_base_summary"], None),
            "unknown flag --only"
        );
        assert_eq!(
            error(&["fig8_base_summary", "--checkpoint-dir"], None),
            "--checkpoint-dir requires a directory"
        );
        assert!(error(&[], Some("ful")).contains("\"ful\""));
        assert!(EXPERIMENTS.iter().all(|e| usage().contains(e.name)));
    }
}
