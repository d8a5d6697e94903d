//! The twelve experiments of the paper's evaluation (§VI) as one table:
//! what each runs, under which seed, and what the paper claims about the
//! result.

use fingerprint::{
    all_devices, base_devices, capture_observation, extended_devices, FingerprintDataset,
    FingerprintObservation, TrainTestSplit, MISSING_AP_DBM,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_radio::{Building, Channel};
use vital::{DamConfig, LocalizationReport, Result, VitalConfig, VitalModel};

use crate::claims::Claim;
use crate::report::Table;
use crate::runner::{
    base_split, build_framework, checkpoint_key, collect, collect_base_dataset,
    collect_extended_dataset, evaluate_on_devices, vital_config, vital_mean_error, CheckpointStore,
    Framework, FrameworkResult,
};
use crate::Scale;

/// What the experiments run on: the buildings (the binary passes the four
/// benchmark buildings; single-building experiments use the first), the
/// training budget and the checkpoint store.
#[derive(Debug)]
pub struct Problem {
    /// Training budget and sweep sizes.
    pub scale: Scale,
    /// The buildings, Building 1 first.
    pub buildings: Vec<Building>,
    /// Where trained models are kept between runs, if anywhere.
    pub store: CheckpointStore,
    /// The base-device pass Figs. 7 and 8 both tabulate, kept per seed so
    /// the five frameworks are trained once per building, not twice.
    base_grid: Option<(u64, Vec<FrameworkResult>)>,
}

impl Problem {
    /// A problem over `buildings` (at least one).
    pub fn new(scale: Scale, buildings: Vec<Building>, store: CheckpointStore) -> Self {
        Problem {
            scale,
            buildings,
            store,
            base_grid: None,
        }
    }

    /// Obtains `framework` trained on `data.train` through the store under
    /// `context` (a populated `--checkpoint-dir` skips training entirely)
    /// and evaluates it on `data.test`, overall and per device.
    fn evaluate(
        &self,
        context: &str,
        framework: Framework,
        building: &Building,
        data: &TrainTestSplit,
        with_dam: bool,
        seed: u64,
    ) -> Result<FrameworkResult> {
        let key = checkpoint_key(context, framework, building, self.scale, with_dam, seed);
        let build = || build_framework(framework, building, self.scale, with_dam, seed);
        let localizer = self.store.fit_or_load(&key, &data.train, build)?;
        evaluate_on_devices(localizer.as_ref(), building, &data.test)
    }

    /// The Fig. 7 protocol in one building: every framework trained on the
    /// 80 % split of the base-device pool and evaluated on the rest.
    fn base_results(
        &self,
        building: &Building,
        with_dam: bool,
        seed: u64,
    ) -> Result<Vec<FrameworkResult>> {
        let data = base_split(building, self.scale, seed);
        let evaluate = |f| self.evaluate("split80", f, building, &data, with_dam, seed);
        Framework::ALL.into_iter().map(evaluate).collect()
    }

    /// [`Problem::base_results`] with the DAM in every building.
    fn base_grid(&mut self, seed: u64) -> Result<&[FrameworkResult]> {
        if !matches!(&self.base_grid, Some((cached, _)) if *cached == seed) {
            let grids = self
                .buildings
                .iter()
                .map(|b| self.base_results(b, true, seed));
            let grid = grids.collect::<Result<Vec<_>>>()?.concat();
            self.base_grid = Some((seed, grid));
        }
        Ok(&self.base_grid.as_ref().expect("filled above").1)
    }
}

/// One figure or table of the paper.
#[derive(Debug)]
pub struct Experiment {
    /// Command-line name and CSV stem under `target/experiments/`.
    pub name: &'static str,
    /// Heading of the table.
    pub title: &'static str,
    /// The model configuration it runs, for the ledger.
    pub config: &'static str,
    /// The seed of its datasets and models; `None` when nothing is drawn.
    pub seed: Option<u64>,
    /// Produces the table.
    pub run: fn(&mut Problem, u64) -> Result<Table>,
    /// What the paper says about the table.
    pub claims: &'static [Claim],
    /// A remark the ledger prints under the table.
    pub note: &'static str,
}

const FAST: &str = "`VitalConfig::fast` widths at the scale's image and patch size";
const MEAN: &str = "mean (m)";
const ERROR: &str = "mean error (m)";
const UNSEEN_ERROR: &str = "mean error on unseen devices (m)";
const WITH_DAM: &str = "w/ DAM (m)";
const NO_DAM: &str = "w/o DAM (m)";
const PARAMETERS: &str = "trainable parameters";
const PAPER_SCALE: &str = "paper scale (206×206, 20×20, 5 heads)";
const FAST_SCALE: &str = "fast scale (24×24, 6×6, 4 heads)";
const GROUP: &str = "group training (6 devices)";
const SINGLE: &str = "single device (BLU only)";
const THREE_CHANNELS: &str = "3-channel (min/max/mean)";
const MEAN_CHANNEL: &str = "mean channel only";

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "fig1_rssi_heterogeneity",
        title: "Fig. 1 — mean RSSI (dBm) of 10 APs at one RP, four smartphones",
        config: "no model",
        seed: Some(2023),
        run: fig1,
        claims: &[Claim::PartlyMissing(MISSING_AP_DBM + 1.0)],
        note: "",
    },
    Experiment {
        name: "fig5_image_patch_sweep",
        title: "Fig. 5 — mean localization error (m) vs image size × patch size (Building 1)",
        config: "`VitalConfig::fast` widths, image and patch size swept",
        seed: Some(5),
        run: fig5,
        claims: &[Claim::GridMinimumIn(
            "206×206 image, 20×20 patch",
            &[],
            &["patch 8", "patch 12"],
        )],
        note: "The paper sweeps 52–206 px images with 4–52 px patches (the grid here is \
               proportionally smaller): very small patches over-fit, very large ones under-fit.",
    },
    Experiment {
        name: "fig6_heads_layers_heatmap",
        title: "Fig. 6 — mean localization error (m) vs MSA heads × fine-tuning MLP depth \
                (Building 1)",
        config: "`VitalConfig::fast`, `msa_heads` and `head_hidden` swept",
        seed: Some(6),
        run: fig6,
        claims: &[Claim::GridMinimumIn(
            "5 heads, 2 MLP layers",
            &["2 heads", "4 heads"],
            &["2 MLP layers"],
        )],
        note: "The \"MLP layers\" axis counts the dense layers of the fine-tuning head \
               (`head_hidden` plus the logits layer), not encoder blocks: `VitalConfig::paper` \
               has `head_hidden: [128]`, i.e. the paper's 2 layers, with `encoder_blocks: 1`, \
               and the two statements agree.",
    },
    Experiment {
        name: "fig7_framework_grid",
        title: "Fig. 7 — mean error (m) per base device, building and framework",
        config: FAST,
        seed: Some(23),
        run: fig7,
        claims: &[
            Claim::Lowest("Building 1/VITAL", MEAN),
            Claim::Lowest("Building 2/VITAL", MEAN),
            Claim::Lowest("Building 3/VITAL", MEAN),
            Claim::Lowest("Building 4/VITAL", MEAN),
            Claim::Ascending(MEAN, &["Building 4/ANVIL", "Building 4/CNNLoc"]),
            Claim::Ascending(MEAN, &["Building 4/SHERPA", "Building 4/CNNLoc"]),
        ],
        note: "One training pass feeds this grid and Fig. 8, its summary.",
    },
    Experiment {
        name: "fig8_base_summary",
        title: "Fig. 8 — error summary across all buildings, base devices",
        config: FAST,
        seed: Some(23),
        run: fig8,
        claims: &[
            Claim::Reference("VITAL", MEAN, "1.18"),
            Claim::Reference("ANVIL", MEAN, "1.9"),
            Claim::Reference("SHERPA", MEAN, "2.0"),
            Claim::Reference("CNNLoc", MEAN, "2.98"),
            Claim::Reference("WiDeep", MEAN, "3.73"),
            Claim::Lowest("VITAL", MEAN),
            Claim::Highest("WiDeep", MEAN),
            Claim::Ascending(MEAN, &["VITAL", "ANVIL", "SHERPA", "CNNLoc", "WiDeep"]),
        ],
        note: "The paper states VITAL's improvement over the other four as 41–68 %.",
    },
    Experiment {
        name: "fig9_dam_ablation",
        title: "Fig. 9 — impact of DAM on mean error (Building 1, base devices)",
        config: FAST,
        seed: Some(31),
        run: fig9,
        claims: &[
            Claim::ColumnBelow("VITAL", WITH_DAM, NO_DAM),
            Claim::ColumnBelow("ANVIL", WITH_DAM, NO_DAM),
            Claim::ColumnBelow("SHERPA", WITH_DAM, NO_DAM),
            Claim::ColumnBelow("CNNLoc", WITH_DAM, NO_DAM),
        ],
        note: "The paper shows WiDeep getting slightly worse with the DAM, so no claim is made \
               for it.",
    },
    Experiment {
        name: "fig10_extended_summary",
        title: "Fig. 10 — error summary across all buildings, extended (unseen) devices",
        config: FAST,
        seed: Some(41),
        run: fig10,
        claims: &[
            Claim::Reference("VITAL", MEAN, "1.38"),
            Claim::Reference("SHERPA", MEAN, "1.7"),
            Claim::Reference("ANVIL", MEAN, "2.51"),
            Claim::Reference("CNNLoc", MEAN, "2.94"),
            Claim::Reference("WiDeep", MEAN, "5.90"),
            Claim::Lowest("VITAL", MEAN),
            Claim::Ascending(MEAN, &["VITAL", "SHERPA", "ANVIL", "CNNLoc", "WiDeep"]),
        ],
        note: "The paper states VITAL's improvement over the other four as 19–77 %.",
    },
    Experiment {
        name: "ablation_channels",
        title: "Pixel-channel ablation — VITAL on Building 1, base devices",
        config: FAST,
        seed: Some(71),
        run: ablation_channels,
        claims: &[],
        note: "The paper gives no number for this ablation, so no claim is judged.",
    },
    Experiment {
        name: "ablation_dam_stages",
        title: "DAM stage ablation — VITAL on Building 1, base devices",
        config: FAST,
        seed: Some(53),
        run: ablation_dam_stages,
        claims: &[],
        note: "The paper gives no number for this ablation, so no claim is judged.",
    },
    Experiment {
        name: "ablation_group_training",
        title: "Group-training ablation — VITAL, Building 1, extended-device test",
        config: FAST,
        seed: Some(61),
        run: ablation_group_training,
        claims: &[Claim::Ascending(UNSEEN_ERROR, &[GROUP, SINGLE])],
        note: "Both pools hold the same number of fingerprints.",
    },
    Experiment {
        name: "model_footprint",
        title: "§VI.B — model footprint",
        config: "`VitalConfig::paper` and `VitalConfig::fast` on Building 1",
        seed: None,
        run: model_footprint,
        claims: &[Claim::Equals(
            PAPER_SCALE,
            PARAMETERS,
            234_706.0,
            "the paper does not give its layer widths",
        )],
        note: "The paper also reports ~50 ms per inference on a smartphone. Nothing is timed \
               here: single-observation latency on the host is the benchmark's \
               `core.predict_single_ms` (BENCHMARK.json), the one timing harness.",
    },
    Experiment {
        name: "tables_devices",
        title: "Tables I and II — smartphones used for evaluation (base, extended)",
        config: "no model",
        seed: None,
        run: tables_devices,
        claims: &[],
        note: "Manufacturer, model, acronym and year are the paper's; the columns are the \
               synthetic RF parameters this reproduction gives each device.",
    },
];

fn fig1(problem: &mut Problem, seed: u64) -> Result<Table> {
    let building = &problem.buildings[0];
    let channel = Channel::new(building, seed);
    let rp = &building.reference_points()[25];
    let num_aps = building.access_points().len().min(10);
    let mut table = Table::new((0..num_aps).map(|i| format!("AP{i}")));
    let mut rng = StdRng::seed_from_u64(7);
    for device in all_devices() {
        if ["HTC", "S7", "IPHONE", "PIXEL"].contains(&device.acronym.as_str()) {
            // 10 samples per device, as in the figure.
            let observation = capture_observation(&channel, &device, rp, 10, &mut rng);
            table.push(device.acronym, observation.mean[..num_aps].to_vec());
        }
    }
    Ok(table)
}

fn fig5(problem: &mut Problem, seed: u64) -> Result<Table> {
    let (image_sizes, patch_sizes): (&[usize], &[usize]) = match problem.scale {
        Scale::Quick => (&[16, 24, 32], &[4, 8, 16]),
        Scale::Full => (&[16, 24, 32, 48, 64], &[4, 8, 12, 16, 24]),
    };
    let building = &problem.buildings[0];
    let data = base_split(building, problem.scale, seed);
    let mut table = Table::new(patch_sizes.iter().map(|p| format!("patch {p}")));
    for &image_size in image_sizes {
        let mut row = Vec::new();
        for &patch_size in patch_sizes {
            let mut config = vital_config(building, problem.scale);
            (config.image_size, config.patch_size) = (image_size, patch_size);
            // A patch larger than the image is not a cell of the grid.
            let in_grid = patch_size <= image_size;
            let error = in_grid.then(|| vital_mean_error(config, building, &data));
            row.push(error.transpose()?.unwrap_or(f32::NAN));
        }
        table.push(format!("image {image_size}"), row);
    }
    Ok(table)
}

fn fig6(problem: &mut Problem, seed: u64) -> Result<Table> {
    let (head_counts, layer_counts): (&[usize], &[usize]) = match problem.scale {
        Scale::Quick => (&[1, 2, 4], &[1, 2, 3]),
        Scale::Full => (&[1, 2, 4, 8], &[1, 2, 3, 4, 5]),
    };
    let building = &problem.buildings[0];
    let data = base_split(building, problem.scale, seed);
    let mut table = Table::new(layer_counts.iter().map(|l| format!("{l} MLP layers")));
    for &heads in head_counts {
        let mut row = Vec::new();
        for &layers in layer_counts {
            let mut config = vital_config(building, problem.scale);
            config.msa_heads = heads;
            // d_model must stay divisible by the head count.
            config.d_model = 32usize.div_ceil(heads) * heads;
            // Fine-tuning MLP: `layers` dense layers, the last one the logits.
            config.head_hidden = vec![64; layers - 1];
            row.push(vital_mean_error(config, building, &data)?);
        }
        table.push(format!("{heads} heads"), row);
    }
    Ok(table)
}

fn fig7(problem: &mut Problem, seed: u64) -> Result<Table> {
    let devices: Vec<String> = base_devices().into_iter().map(|d| d.acronym).collect();
    let mean = std::iter::once(MEAN.to_string());
    let mut table = Table::new(devices.iter().cloned().chain(mean));
    for result in problem.base_grid(seed)? {
        let of_device = |device: &String| {
            let report = result.per_device.iter().find(|(name, _)| name == device);
            report.map_or(f32::NAN, |(_, report)| report.mean_error_m())
        };
        let mut row: Vec<f32> = devices.iter().map(of_device).collect();
        row.push(result.overall.mean_error_m());
        table.push(format!("{}/{}", result.building, result.framework), row);
    }
    Ok(table)
}

/// Min, mean and max (and the 95th percentile) of every framework's errors
/// pooled over the buildings: the whisker plots of Figs. 8 and 10.
fn summary(results: &[FrameworkResult], with_p95: bool) -> Table {
    let p95 = with_p95.then_some("p95 (m)");
    let mut table = Table::new(["min (m)", MEAN, "max (m)"].into_iter().chain(p95));
    for framework in Framework::ALL {
        let of_framework = results.iter().filter(|r| r.framework == framework.name());
        let pooled = LocalizationReport::merged(of_framework.map(|r| &r.overall));
        let mut row = vec![
            pooled.min_error_m(),
            pooled.mean_error_m(),
            pooled.max_error_m(),
        ];
        if with_p95 {
            row.push(pooled.percentile_m(95.0));
        }
        table.push(framework.name(), row);
    }
    table
}

fn fig8(problem: &mut Problem, seed: u64) -> Result<Table> {
    Ok(summary(problem.base_grid(seed)?, true))
}

fn fig9(problem: &mut Problem, seed: u64) -> Result<Table> {
    let building = &problem.buildings[0];
    let without = problem.base_results(building, false, seed)?;
    let with = problem.base_results(building, true, seed)?;
    let mut table = Table::new([NO_DAM, WITH_DAM, "improvement (m)"]);
    for (before, after) in without.iter().zip(&with) {
        let (b, a) = (before.overall.mean_error_m(), after.overall.mean_error_m());
        table.push(before.framework.clone(), vec![b, a, b - a]);
    }
    Ok(table)
}

fn fig10(problem: &mut Problem, seed: u64) -> Result<Table> {
    let mut results = Vec::new();
    for building in &problem.buildings {
        // Train on the full base-device pool, test on the unseen devices.
        let data = TrainTestSplit {
            train: collect_base_dataset(building, problem.scale, seed),
            test: collect_extended_dataset(building, problem.scale, seed),
        };
        for framework in Framework::ALL {
            results.push(problem.evaluate("full", framework, building, &data, true, seed)?);
        }
    }
    Ok(summary(&results, false))
}

fn ablation_channels(problem: &mut Problem, seed: u64) -> Result<Table> {
    /// Collapses every observation's three channels to the mean channel.
    fn mean_only(dataset: &FingerprintDataset) -> FingerprintDataset {
        let collapse = |o: &FingerprintObservation| FingerprintObservation {
            rp_label: o.rp_label,
            device: o.device.clone(),
            min: o.mean.clone(),
            max: o.mean.clone(),
            mean: o.mean.clone(),
        };
        FingerprintDataset::from_observations(
            dataset.building(),
            dataset.num_aps(),
            dataset.num_rps(),
            dataset.observations().iter().map(collapse).collect(),
        )
    }
    let building = &problem.buildings[0];
    let data = base_split(building, problem.scale, seed);
    let collapsed = TrainTestSplit {
        train: mean_only(&data.train),
        test: mean_only(&data.test),
    };
    let mut table = Table::new([ERROR]);
    for (label, data) in [(THREE_CHANNELS, &data), (MEAN_CHANNEL, &collapsed)] {
        let config = vital_config(building, problem.scale);
        table.push(label, vec![vital_mean_error(config, building, data)?]);
    }
    Ok(table)
}

fn ablation_dam_stages(problem: &mut Problem, seed: u64) -> Result<Table> {
    let building = &problem.buildings[0];
    let data = base_split(building, problem.scale, seed);
    let without = |stage: fn(&mut DamConfig)| {
        let mut dam = DamConfig::default();
        stage(&mut dam);
        dam
    };
    let mut table = Table::new([ERROR]);
    for (label, dam) in [
        ("full DAM", DamConfig::default()),
        ("no dropout", without(|dam| dam.dropout_rate = 0.0)),
        ("no noise", without(|dam| dam.noise_std = 0.0)),
        ("no normalisation", without(|dam| dam.normalize = false)),
        ("disabled", DamConfig::disabled()),
    ] {
        let mut config = vital_config(building, problem.scale);
        config.dam = dam;
        table.push(label, vec![vital_mean_error(config, building, &data)?]);
    }
    Ok(table)
}

fn ablation_group_training(problem: &mut Problem, seed: u64) -> Result<Table> {
    let building = &problem.buildings[0];
    let devices = base_devices();
    let captures = problem.scale.captures_per_rp();
    // The same number of fingerprints from one device as from six.
    let single = collect(building, &devices[..1], captures * devices.len(), seed);
    let group = collect(building, &devices, captures, seed);
    let test = collect_extended_dataset(building, problem.scale, seed);
    let mut table = Table::new([UNSEEN_ERROR]);
    for (label, context, train) in [
        (SINGLE, "group-single", single),
        (GROUP, "group-pool", group),
    ] {
        let test = test.clone();
        let data = TrainTestSplit { train, test };
        let result = problem.evaluate(context, Framework::Vital, building, &data, true, seed)?;
        table.push(label, vec![result.overall.mean_error_m()]);
    }
    Ok(table)
}

fn model_footprint(problem: &mut Problem, _seed: u64) -> Result<Table> {
    let building = &problem.buildings[0];
    let aps = building.access_points().len();
    let classes = building.reference_points().len();
    let mut table = Table::new([PARAMETERS, "patches per image", "patch dimension"]);
    for (label, config) in [
        (PAPER_SCALE, VitalConfig::paper(aps, classes)),
        (FAST_SCALE, VitalConfig::fast(aps, classes)),
    ] {
        let model = VitalModel::new(config)?;
        let vit = model.transformer();
        let sizes = [model.param_count(), vit.num_patches(), vit.patch_dim()];
        table.push(label, sizes.map(|n| n as f32).to_vec());
    }
    Ok(table)
}

fn tables_devices(_problem: &mut Problem, _seed: u64) -> Result<Table> {
    let mut table = Table::new(["offset dB", "slope", "floor dBm", "σ dB"]);
    for (number, devices) in [("I", base_devices()), ("II", extended_devices())] {
        for d in devices {
            let (maker, model, acronym, year) =
                (d.manufacturer, d.model, d.acronym, d.release_year);
            table.push(
                format!("Table {number}: {maker} {model} ({acronym}) {year}"),
                vec![
                    d.gain_offset_db,
                    d.gain_slope,
                    d.sensitivity_dbm,
                    d.noise_std_db,
                ],
            );
        }
    }
    Ok(table)
}
