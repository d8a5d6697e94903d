//! Where a compiled VITAL plan spends its time, step by step: the folded
//! inference plan `localize_batch` and the server run, for
//! `VitalConfig::paper` (the default) or `VitalConfig::fast` at a given
//! batch, timed at the dispatch level `VITAL_SIMD` selects (`avx512` where
//! the CPU has AVX-512F, else `avx2`, by default).
//!
//! ```bash
//! cargo run --release --example plan_profile [paper|fast] [batch] [reps]
//! VITAL_SIMD=avx2 cargo run --release --example plan_profile 32
//! cargo run --release --example plan_profile fast 16   # offline_eval's VITAL shape
//! ```
//!
//! The plan runs `reps` times (default 40) after two warm-up runs through
//! `CompiledPlan::execute_timed`, the serving run loop with a clock read
//! around each step's kernel and its fused post chain. Steps of the same
//! kind, shape and post chain are one row: how many there are, the median
//! milliseconds of one run of all of them, and a rate — GFLOP/s for a GEMM
//! (`2·m·k·n` per step), with its fraction of the band tile's in-L1 rate at
//! that level and width (one band over one packed panel, `k = 128`, the
//! best of 15 samples), and nanoseconds per output element for every
//! other kernel and for every post chain (a GEMM's bias add and GELU
//! among them). The model's weights are seeded, not trained: no step's
//! time depends on their values.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::time::Instant;

use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
use graph::{Compiler, StepInfo, StepTime};
use sim_radio::building_3;
use tensor::rng::SeededRng;
use vital::{VisionTransformer, VitalConfig};

const WARM_UP: usize = 2;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// GFLOP/s of one band of the tile `tile_dims(level, n)` picks, run
/// straight on the band kernel over one packed panel with `k = 128`, so
/// A, B and the output stay in L1: the rate a GEMM step of that width is
/// held to (best of 15 samples).
fn tile_rate(level: simd::Level, n: usize) -> f64 {
    let (mr, nr) = simd::gemm::tile_dims(level, n);
    let k = 128;
    let a = SeededRng::new(3).uniform_tensor(&[mr * k], -1.0, 1.0);
    // One full panel of `k` groups of `nr` columns: the packed layout.
    let packed_b = SeededRng::new(4).uniform_tensor(&[k * nr], -1.0, 1.0);
    let mut out = vec![0.0f32; mr * nr];
    let reps = 4_000_000 / (mr * k * nr) + 1;
    // The fastest of several samples: a ceiling is what the tile does
    // when no neighbour takes the core.
    let fastest = (0..15)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                let (a, b) = (a.as_slice(), packed_b.as_slice());
                simd::gemm::gemm_band_at(level, a, (k, 1), b, k, nr, &mut out);
                std::hint::black_box(&mut out);
            }
            started.elapsed().as_secs_f64() / reps as f64
        })
        .fold(f64::INFINITY, f64::min);
    2.0 * (mr * k * nr) as f64 / fastest / 1e9
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1).peekable();
    // The first argument names the config, unless it is the batch.
    let config_name = match args.peek().map(String::as_str) {
        Some("fast") => "fast",
        _ => "paper",
    };
    if args.peek().is_some_and(|a| a == "fast" || a == "paper") {
        args.next();
    }
    let batch: usize = args.next().map_or(Ok(32), |a| a.parse())?;
    let reps: usize = args.next().map_or(Ok(40), |a| a.parse())?;
    let level = simd::try_active_level()?;
    let campaign = DatasetConfig {
        captures_per_rp: 1,
        samples_per_capture: 1,
        seed: 1,
    };
    let data = FingerprintDataset::collect(&building_3(), &base_devices()[..1], &campaign);
    let config = match config_name {
        "fast" => VitalConfig::fast(data.num_aps(), data.num_rps()),
        _ => VitalConfig::paper(data.num_aps(), data.num_rps()),
    };
    let vit = VisionTransformer::new(&mut SeededRng::new(1), &config)?;
    let (graph, output) = vit.build_folded_graph(batch)?;
    let plan = Compiler::new().compile(&graph, output)?;
    let input_len = batch * vit.distinct_patches() * vit.distinct_dim();
    let input = SeededRng::new(2).uniform_tensor(&[input_len], -1.0, 1.0);

    let steps: Vec<StepInfo> = plan.steps().collect();
    let mut times = vec![StepTime::default(); steps.len()];
    let mut runs: Vec<Vec<StepTime>> = Vec::with_capacity(reps);
    for run in 0..WARM_UP + reps {
        let fill = |region: &mut [f32]| -> Result<(), std::convert::Infallible> {
            region.copy_from_slice(input.as_slice());
            Ok(())
        };
        plan.execute_timed(fill, |_| (), &mut times)?;
        if run >= WARM_UP {
            runs.push(times.clone());
        }
    }

    // Group the steps by what they compute, in order of first appearance.
    let mut groups: Vec<(&StepInfo, Vec<usize>)> = Vec::new();
    let mut index: HashMap<&StepInfo, usize> = HashMap::new();
    for (i, step) in steps.iter().enumerate() {
        let slot = *index.entry(step).or_insert_with(|| {
            groups.push((step, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(i);
    }

    let total_ms: Vec<f64> = runs
        .iter()
        .map(|run| {
            run.iter()
                .map(|t| (t.kernel + t.post).as_secs_f64() * 1e3)
                .sum()
        })
        .collect();
    println!(
        "{config_name} plan, batch {batch}, simd={}: {} steps, {} fused post-ops, {reps} timed runs, median {:.3} ms per run",
        level.name(),
        plan.step_count(),
        plan.fused_op_count(),
        median(total_ms)
    );
    let mut rates: HashMap<(usize, usize), f64> = HashMap::new();
    println!(
        "{:>5}  {:<14} {:<16} {:>9}  {:>15}  {:>9}  post chain",
        "count", "kernel", "shape", "ms/run", "rate", "of tile"
    );
    for (step, members) in &groups {
        let ms = |part: fn(&StepTime) -> f64| {
            median(
                runs.iter()
                    .map(|run| members.iter().map(|&i| part(&run[i])).sum::<f64>() * 1e3)
                    .collect(),
            )
        };
        let kernel_ms = ms(|t| t.kernel.as_secs_f64());
        let post_ms = ms(|t| t.post.as_secs_f64());
        let elements = (members.len() * step.rows * step.cols) as f64;
        let per_element = |ms: f64| format!("{:.2} ns/elem", ms * 1e6 / elements);
        let (shape, rate, of_tile) = match step.gemm {
            Some((m, k, n)) => {
                let gflops = 2.0 * (members.len() * m * k * n) as f64 / (kernel_ms * 1e6);
                let tile = simd::gemm::tile_dims(level, n);
                let peak = *rates.entry(tile).or_insert_with(|| tile_rate(level, n));
                (
                    format!("{m}x{k}x{n}"),
                    format!("{gflops:.1} GFLOP/s"),
                    format!("{:.0}%", 100.0 * gflops / peak),
                )
            }
            None => (
                format!("{}x{}", step.rows, step.cols),
                per_element(kernel_ms),
                String::new(),
            ),
        };
        let post = if step.post.is_empty() {
            String::new()
        } else {
            format!(
                "{}: {:.3} ms, {}",
                step.post.join("+"),
                post_ms,
                per_element(post_ms)
            )
        };
        println!(
            "{:>5}  {:<14} {:<16} {:>9.3}  {:>15}  {:>9}  {post}",
            members.len(),
            step.kernel,
            shape,
            kernel_ms + post_ms,
            rate,
            of_tile
        );
    }
    println!("band tile in L1 at {} (k = 128, one panel):", level.name());
    let mut tiles: Vec<_> = rates.into_iter().collect();
    tiles.sort_by_key(|((mr, nr), _)| (*nr, *mr));
    for ((mr, nr), gflops) in tiles {
        println!("  {mr:>2} x {nr:<2} tile: {gflops:.1} GFLOP/s");
    }
    Ok(())
}
