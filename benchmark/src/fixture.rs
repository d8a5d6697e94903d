//! Set-up: everything a workload needs before its timed phase, built from
//! the seed. The time [`Fixture::build`] takes is `setup_s`.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use baselines::{comparison_suite, FeatureMode, KnnLocalizer};
use fingerprint::{
    base_devices, extended_devices, DatasetConfig, FingerprintDataset, FingerprintObservation,
};
use serve::{BatcherConfig, Registry, Server, ServerConfig};
use sim_radio::{building_3, Building};
use vital::{Localizer, VitalConfig, VitalModel};

use crate::loadgen;
use crate::schedule::Rng;
use crate::spec::fixed;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSingle,
    ServeBulk,
    OfflineEval,
    TrainFit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeSingle,
        Workload::ServeBulk,
        Workload::OfflineEval,
        Workload::TrainFit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSingle => "serve_single",
            Workload::ServeBulk => "serve_bulk",
            Workload::OfflineEval => "offline_eval",
            Workload::TrainFit => "train_fit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs `VitalConfig::paper` (else `fast`).
    pub fn paper_model(self) -> bool {
        matches!(self, Workload::ServeBulk | Workload::TrainFit)
    }

    pub fn serves(self) -> bool {
        matches!(self, Workload::ServeSingle | Workload::ServeBulk)
    }

    /// Observations per unit of work the model sees at once: a request's
    /// on the serve workloads, a training step's on `train_fit`, one
    /// `localize_batch` chunk's on `offline_eval`.
    pub fn obs_per_request(self) -> usize {
        match self {
            Workload::ServeSingle => 1,
            _ => fixed::BULK_OBS,
        }
    }

    /// Load-generator threads, one keep-alive connection each.
    pub fn connections(self) -> usize {
        match self {
            Workload::ServeSingle => fixed::SINGLE_CONNECTIONS,
            _ => fixed::BULK_CLIENTS,
        }
    }

    pub fn config(self, num_aps: usize, num_classes: usize) -> VitalConfig {
        if self.paper_model() {
            let mut config = VitalConfig::paper(num_aps, num_classes);
            config.train.epochs = 1;
            config
        } else {
            VitalConfig::fast(num_aps, num_classes)
        }
    }
}

/// The server's batching settings: the shipping defaults with the worker
/// and thread counts pinned, never derived from the host.
pub fn batcher_config() -> BatcherConfig {
    BatcherConfig {
        workers: 1,
        threads: Some(fixed::COMPUTE_THREADS),
        ..BatcherConfig::default()
    }
}

/// Name the benchmark's one hosted model is served under.
pub const MODEL_NAME: &str = "vital";

/// A server booted from a checkpoint directory.
pub struct Served {
    server: Server,
}

impl Served {
    /// Checkpoint on disk → listening server.
    pub fn boot(dir: &Path) -> Result<Served, String> {
        let registry = Registry::from_checkpoint_dir(dir)?;
        let config = ServerConfig {
            batcher: batcher_config(),
            ..ServerConfig::default()
        };
        Ok(Served {
            server: Server::start(config, registry)?,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Sends `observations` as one request on a fresh connection; the
    /// answer must equal `expected`.
    pub fn first_answer(
        &self,
        observations: &[FingerprintObservation],
        expected: &[usize],
    ) -> Result<(), String> {
        let stream = TcpStream::connect(self.addr()).map_err(|e| format!("connect: {e}"))?;
        loadgen::prepare(&stream);
        let bytes = loadgen::request_bytes(observations);
        let mut conn = serve::http::Conn::new(&stream);
        let answer = loadgen::exchange(&stream, &mut conn, &bytes)?.predictions;
        if answer == expected {
            Ok(())
        } else {
            Err(format!(
                "warm-up answer {answer:?} differs from offline {expected:?}"
            ))
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.drain(Duration::from_secs(5));
    }
}

/// What set-up spent where, for the layer metrics that move `setup_s`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub total_s: f64,
    pub collect_s: f64,
    pub collect_obs: usize,
    /// The whole `fit` call: `train.epochs` passes over `Fixture::train`.
    pub vital_fit_s: f64,
    pub baselines_fit_s: f64,
}

pub struct Fixture {
    pub workload: Workload,
    pub building: Building,
    /// What VITAL (and the baselines) were fitted on.
    pub train: FingerprintDataset,
    /// Held-out split plus the extended devices: what requests and
    /// evaluation passes draw from.
    pub pool: Vec<FingerprintObservation>,
    pub vital: VitalModel,
    /// KNN and the four comparison frameworks; `offline_eval` only.
    pub baselines: Vec<Box<dyn Localizer>>,
    pub served: Option<Served>,
    pub timings: SetupTimings,
    /// Scratch directory of this fixture, removed when it is dropped.
    pub dir: PathBuf,
}

impl Fixture {
    /// Builds the workload's fixture from `seed`, using `dir` (created
    /// here) for the checkpoint the server boots from.
    pub fn build(workload: Workload, seed: u64, dir: &Path) -> Result<Fixture, String> {
        let started = Instant::now();
        let building = building_3();
        let campaign = DatasetConfig {
            captures_per_rp: 2,
            samples_per_capture: 5,
            seed,
        };
        let base = FingerprintDataset::collect(&building, &base_devices(), &campaign);
        let extended = FingerprintDataset::collect(&building, &extended_devices(), &campaign);
        let collect_s = started.elapsed().as_secs_f64();
        let collect_obs = base.len() + extended.len();
        let split = base.split(0.8, seed);

        let mut pool = split.test.observations().to_vec();
        pool.extend_from_slice(extended.observations());
        let kept: Vec<FingerprintObservation> = match workload {
            Workload::ServeBulk => split.train.observations()[..fixed::BULK_TRAIN_OBS].to_vec(),
            Workload::TrainFit => split.train.observations()[..fixed::TRAIN_FIT_OBS].to_vec(),
            _ => split
                .train
                .observations()
                .iter()
                .step_by(fixed::TRAIN_STRIDE)
                .cloned()
                .collect(),
        };
        if workload.paper_model() {
            // 1.9 ms per observation: a smaller pool keeps reference
            // predictions and the gate affordable.
            Rng::new(seed).shuffle(&mut pool);
            pool.truncate(fixed::PAPER_POOL);
        }
        let train = FingerprintDataset::from_observations(
            building.name(),
            base.num_aps(),
            base.num_rps(),
            kept,
        );

        let config = workload.config(base.num_aps(), base.num_rps());
        let mut vital = VitalModel::new(config).map_err(|e| e.to_string())?;
        let fit_started = Instant::now();
        vital.fit(&train).map_err(|e| e.to_string())?;
        let vital_fit_s = fit_started.elapsed().as_secs_f64();

        let mut baselines: Vec<Box<dyn Localizer>> = Vec::new();
        let mut baselines_fit_s = 0.0;
        if workload == Workload::OfflineEval {
            baselines.push(Box::new(KnnLocalizer::new(5, FeatureMode::MeanChannel)));
            baselines.extend(comparison_suite(false, seed));
            let fit_started = Instant::now();
            baselines
                .iter_mut()
                .try_for_each(|b| b.fit(&train))
                .map_err(|e| e.to_string())?;
            baselines_fit_s = fit_started.elapsed().as_secs_f64();
        }

        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut fixture = Fixture {
            workload,
            building,
            train,
            pool,
            vital,
            baselines,
            served: None,
            timings: SetupTimings::default(),
            dir: dir.to_path_buf(),
        };
        fixture.warm_up()?;
        fixture.timings = SetupTimings {
            total_s: started.elapsed().as_secs_f64(),
            collect_s,
            collect_obs,
            vital_fit_s,
            baselines_fit_s,
        };
        Ok(fixture)
    }

    /// Lets lazy work finish before anything is timed: boots the server
    /// and waits for its first correct answer, or runs one evaluation pass
    /// so every framework's plans exist.
    fn warm_up(&mut self) -> Result<(), String> {
        if self.workload.serves() {
            let bytes = self
                .vital
                .to_checkpoint()
                .and_then(|c| c.to_bytes())
                .map_err(|e| e.to_string())?;
            let path = self.dir.join(format!("{MODEL_NAME}.vckpt"));
            std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
            let served = Served::boot(&self.dir)?;
            let first = &self.pool[..self.workload.obs_per_request()];
            let expected = self
                .vital
                .localize_batch(first)
                .map_err(|e| e.to_string())?;
            served.first_answer(first, &expected)?;
            // Then one request per generator connection at once, so the
            // coalesced batch shape of steady state is planned too.
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..self.workload.connections())
                    .map(|_| scope.spawn(|| served.first_answer(first, &expected)))
                    .collect();
                clients.into_iter().try_for_each(|client| {
                    client
                        .join()
                        .map_err(|_| "warm-up client panicked".to_string())?
                })
            })?;
            self.served = Some(served);
        } else if self.workload == Workload::OfflineEval {
            self.localizers()
                .iter()
                .try_for_each(|(_, l)| l.localize_batch(&self.pool).map(drop))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// VITAL first, then the baselines, each under its table name.
    pub fn localizers(&self) -> Vec<(&str, &dyn Localizer)> {
        let mut all: Vec<(&str, &dyn Localizer)> = vec![("VITAL", &self.vital)];
        all.extend(self.baselines.iter().map(|b| (b.name(), b.as_ref())));
        all
    }

    /// Epochs set-up's `fit` ran.
    pub fn fit_epochs(&self) -> usize {
        self.vital.config().train.epochs
    }

    /// The wire bytes of every distinct request the workload sends: the
    /// pool, `obs_per_request` observations at a time.
    pub fn request_wires(&self) -> Vec<Vec<u8>> {
        self.pool
            .chunks_exact(self.workload.obs_per_request())
            .map(loadgen::request_bytes)
            .collect()
    }

    pub fn pool_dataset(&self) -> FingerprintDataset {
        FingerprintDataset::from_observations(
            self.building.name(),
            self.train.num_aps(),
            self.train.num_rps(),
            self.pool.clone(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // The server must be gone before its checkpoint directory is.
        self.served = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
