//! The server in virtual time: connection sessions, the schedule and the
//! production dispatch round on fitted KNN models, with no socket, no
//! sleep and no second thread.
//!
//! A run plays a few dozen clients. Each is a [`Session`] fed its script in
//! chunks of random sizes, as `server.rs`'s shell feeds one: bytes only
//! when the session asks, its jobs pushed onto one [`Schedule`], each reply
//! handed back. Workers take from the schedule and run
//! [`batcher::dispatch`]; a batch's run time is a step of the
//! `base + Duration` clock. What can happen at one instant happens in an
//! order drawn from the run's seed; when nothing can, the clock moves to
//! the next event.
//!
//! Every run checks that each request gets exactly one response, in order;
//! that each `200` equals offline `localize_batch` bit for bit; that each
//! refusal is typed (`400`, `404`, `431`, `503` and `504` with
//! `Retry-After`, `500` naming the injected panic); that no session holds
//! more than `MAX_HEAD_BYTES + MAX_BODY_BYTES` plus one read chunk; that
//! no client is stranded; and that the workers leave a drained queue.

use std::num::NonZeroU64;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use baselines::{FeatureMode, KnnLocalizer};
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset, FingerprintObservation};
use jsonio::Json;
use proptest::prelude::*;
use vital::Localizer;

use crate::batcher::{self, JobFailure};
use crate::codec;
use crate::faultinject::FaultPlan;
use crate::http::{self, Method, Parse, Response, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use crate::metrics::Metrics;
use crate::registry::Registry;
use crate::schedule::{Decision, Schedule, Take};
use crate::session::{Action, Outcome, Service, Session, READ_CHUNK};

/// The hosted models: name and neighbour count.
const MODELS: [(&str, usize); 2] = [("knn", 3), ("knn1", 1)];

/// The observations requests carry, and the models fitted on them.
fn fixture() -> &'static (Vec<FingerprintObservation>, Vec<KnnLocalizer>) {
    static FIXTURE: OnceLock<(Vec<FingerprintObservation>, Vec<KnnLocalizer>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 1234,
        };
        let building = sim_radio::building_1();
        let data = FingerprintDataset::collect(&building, &base_devices()[..2], &config);
        let fit = |&(_, k): &(&str, usize)| {
            let mut knn = KnnLocalizer::new(k, FeatureMode::Ssd);
            knn.fit(&data).expect("fit KNN");
            knn
        };
        (
            data.observations().to_vec(),
            MODELS.iter().map(fit).collect(),
        )
    })
}

/// SplitMix64: a run's one source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What must answer a request.
#[derive(Debug, Clone)]
enum Expect {
    /// These offline predictions, in the single form or not; or a typed
    /// shedding: `503` (queue full), `504` (if the job had a deadline),
    /// `500` naming the injected panic.
    Served {
        offline: Vec<usize>,
        single: bool,
        due: bool,
    },
    /// This status, or a draining `503` once a drain has started.
    Live(u16),
    /// This status, and `Connection: close` if the flag is set.
    Status(u16, bool),
}

/// One request of a script: its bytes and what must answer it.
type Item = (Vec<u8>, Expect);

fn wire(method: Method, target: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    http::write_request(&mut wire, method, target, &[], body).expect("write to a Vec");
    wire
}

/// A localize request for `model`, in the single form if `single`.
fn request(
    model: &str,
    observations: &[FingerprintObservation],
    single: bool,
    deadline: Option<u64>,
) -> Vec<u8> {
    let mut members = vec![("model", Json::from(model))];
    members.extend(deadline.map(|ms| ("deadline_ms", Json::from(ms))));
    let each = |o: &FingerprintObservation| codec::observation_to_json(o);
    members.push(match observations {
        [only] if single => ("observation", each(only)),
        _ => ("observations", Json::arr(observations.iter().map(each))),
    });
    wire(
        Method::Post,
        "/v1/localize",
        Json::obj(members).to_json_string().as_bytes(),
    )
}

/// Model `model` asked for `pool[first..first + len]`.
fn served(model: usize, first: usize, len: usize, single: bool, deadline: Option<u64>) -> Item {
    let (pool, models) = fixture();
    let observations = &pool[first..first + len];
    let expect = Expect::Served {
        offline: models[model].localize_batch(observations).expect("offline"),
        single: single && len == 1,
        due: deadline.is_some(),
    };
    let wire = request(MODELS[model].0, observations, single, deadline);
    (wire, expect)
}

/// A bulk request of `len` observations from `first` for the first model.
fn bulk(first: usize, len: usize) -> Item {
    served(0, first, len, false, None)
}

fn get(target: &str, expect: Expect) -> Item {
    (wire(Method::Get, target, b""), expect)
}

fn drain() -> Item {
    (
        wire(Method::Post, "/admin/drain", b""),
        Expect::Status(202, false),
    )
}

/// The knobs of one run.
#[derive(Debug, Clone)]
struct Config {
    workers: usize,
    max_batch: usize,
    max_wait: Duration,
    queue_cap: usize,
    default_deadline: Option<Duration>,
    /// The collected batch the injected worker panic hits, if any.
    panic_on: Option<u64>,
    /// A batch runs this long, plus `per_observation` for each observation.
    per_batch: Duration,
    per_observation: Duration,
    seed: u64,
}

const CONFIG: Config = Config {
    workers: 1,
    max_batch: 32,
    max_wait: Duration::ZERO,
    queue_cap: 256,
    default_deadline: None,
    panic_on: None,
    per_batch: Duration::from_millis(1),
    per_observation: Duration::from_micros(100),
    seed: 1,
};

/// One client: its requests, when it connects and its pause between
/// chunks.
#[derive(Debug, Clone)]
struct Script {
    items: Vec<Item>,
    start: Duration,
    pause: Duration,
}

/// A client that sends `items` `start_ms` into the run, without pauses.
fn script(items: Vec<Item>, start_ms: u64) -> Script {
    let start = Duration::from_millis(start_ms);
    let pause = Duration::ZERO;
    Script {
        items,
        start,
        pause,
    }
}

enum State {
    /// The session asked the shell for this.
    Act(Action),
    /// A submitted job's reply is awaited.
    Wait(Receiver<Result<Vec<usize>, JobFailure>>),
    Done,
}

struct Client {
    session: Session,
    state: State,
    /// The script's bytes, how many were sent, and whether EOF was.
    wire: Vec<u8>,
    sent: usize,
    eof: bool,
    /// When the next chunk has arrived.
    ready: Instant,
    pause: Duration,
    /// What the server wrote back.
    answers: Vec<u8>,
}

struct Worker {
    take: Take,
    /// When the batch it runs ends (if `running`) or the hold it waits in
    /// does.
    until: Option<Instant>,
    running: bool,
    gone: bool,
}

/// A run in progress: the shell's shared half, the clients and the workers.
struct Sim<'a> {
    config: &'a Config,
    service: Service,
    registry: Registry,
    faults: Option<FaultPlan>,
    schedule: Schedule,
    rng: Rng,
    now: Instant,
    clients: Vec<Client>,
    workers: Vec<Worker>,
    /// Observations of each batch, in the order the batches ended.
    batches: Vec<usize>,
    /// Jobs of the batch the injected panic hit.
    panicked: Option<usize>,
}

impl Sim<'_> {
    /// Does what client `i`'s session asks until it waits on the clock or
    /// a reply; returns whether anything happened.
    fn client(&mut self, i: usize) -> Result<bool, TestCaseError> {
        let Sim {
            service,
            schedule,
            rng,
            now,
            clients,
            ..
        } = self;
        let (client, now) = (&mut clients[i], *now);
        for steps in 0.. {
            // A session that loops fails the run instead of hanging it.
            prop_assert!(steps <= 2 * client.wire.len() + 8, "a session loops");
            let next = match std::mem::replace(&mut client.state, State::Done) {
                State::Done => return Ok(steps > 0),
                State::Wait(answer) => match answer.try_recv() {
                    Err(TryRecvError::Empty) => {
                        client.state = State::Wait(answer);
                        return Ok(steps > 0);
                    }
                    reply => {
                        let lost = Outcome::Lost(RecvTimeoutError::Disconnected);
                        let outcome = reply.map_or(lost, Outcome::Replied);
                        client.session.answered(service, outcome, now)
                    }
                },
                State::Act(Action::Read) if client.ready > now => {
                    client.state = State::Act(Action::Read);
                    return Ok(steps > 0);
                }
                State::Act(Action::Read) => {
                    // Split reads or a whole chunk of pipelined requests;
                    // past the script the read is the client's EOF.
                    prop_assert!(!client.eof, "a read asked for after EOF");
                    let size = [1 + rng.below(64), READ_CHUNK][rng.below(2)];
                    let end = (client.sent + size).min(client.wire.len());
                    client.eof = client.sent == end;
                    client.session.received(&client.wire[client.sent..end]);
                    (client.sent, client.ready) = (end, now + client.pause);
                    let held = client.session.buffered();
                    prop_assert!(held <= MAX_HEAD_BYTES + MAX_BODY_BYTES + READ_CHUNK);
                    client.session.poll(service, now)
                }
                State::Act(Action::Submit { job, answer }) => match schedule.push(job) {
                    Ok(()) => {
                        client.state = State::Wait(answer);
                        continue;
                    }
                    Err(refused) => {
                        let outcome = Outcome::Refused(refused);
                        client.session.answered(service, outcome, now)
                    }
                },
                State::Act(Action::Write { bytes, close }) => {
                    client.answers.extend_from_slice(&bytes);
                    if close {
                        return Ok(true);
                    }
                    client.session.poll(service, now)
                }
                State::Act(Action::Drain(then)) => {
                    schedule.drain();
                    *then
                }
                State::Act(Action::Close) => return Ok(true),
            };
            client.state = State::Act(next);
        }
        unreachable!("the step count has no end")
    }

    /// Worker `id`'s next move; returns whether anything happened.
    fn worker(&mut self, id: usize) -> bool {
        let Sim {
            config,
            service,
            registry,
            faults,
            schedule,
            now,
            workers,
            batches,
            panicked,
            ..
        } = self;
        let (worker, now) = (&mut workers[id], *now);
        if worker.gone || worker.until.is_some_and(|until| until > now) {
            return false;
        }
        let observations = |take: &Take| take.batch.iter().map(|job| job.observations.len()).sum();
        if worker.running {
            // The batch ends: the production round runs it and replies.
            if !worker.take.batch.is_empty() {
                batches.push(observations(&worker.take));
                if config.panic_on == Some(batches.len() as u64) {
                    *panicked = Some(worker.take.batch.len());
                }
            }
            let take = &mut worker.take;
            batcher::dispatch(id, registry, take, faults.as_ref(), &service.metrics);
            worker.take.clear();
            (worker.running, worker.until) = (false, None);
            return true;
        }
        let queued = schedule.len();
        worker.until = None;
        match schedule.take(now, &mut worker.take) {
            Decision::Run => {
                let runs = match observations(&worker.take) {
                    0 => Duration::ZERO,
                    n => config.per_batch + config.per_observation * n as u32,
                };
                (worker.running, worker.until) = (true, Some(now + runs));
            }
            Decision::Leave => {
                worker.gone = true;
                schedule.leave();
                service.metrics.live_workers.fetch_sub(1, Ordering::Relaxed);
            }
            Decision::WaitUntil(end) => worker.until = Some(end),
            Decision::WaitForWork => {}
        }
        worker.running || worker.gone || schedule.len() != queued
    }
}

/// What a run produced, for the scenario tests.
struct Report {
    /// Each client's responses, one per request.
    responses: Vec<Vec<Response>>,
    batches: Vec<usize>,
    panicked: Option<usize>,
    /// When the last worker left, if a client's drain let it.
    drained_at: Option<Duration>,
    metrics: Json,
}

impl Report {
    fn statuses(&self) -> Vec<Vec<u16>> {
        let statuses = |responses: &Vec<Response>| responses.iter().map(|r| r.status).collect();
        self.responses.iter().map(statuses).collect()
    }

    fn counter(&self, name: &str) -> Option<usize> {
        self.metrics.get(name).and_then(Json::as_usize)
    }
}

/// Runs `scripts` against a server configured by `config` and checks every
/// property of the module docs.
fn run(config: &Config, scripts: &[Script]) -> Result<Report, TestCaseError> {
    let hosted = MODELS.iter().zip(&fixture().1);
    let hosted = hosted.map(|(&(name, _), model)| (name.to_string(), Box::new(model.clone()) as _));
    let registry = Registry::from_models(hosted.collect());
    let metrics = Arc::new(Metrics::with_workers(config.workers));
    metrics
        .live_workers
        .store(config.workers, Ordering::Relaxed);
    let base = Instant::now();
    let client = |script: &Script| Client {
        session: Session::new(),
        // What a fresh session's first poll asks for.
        state: State::Act(Action::Read),
        wire: script
            .items
            .iter()
            .flat_map(|(wire, _)| wire.clone())
            .collect(),
        sent: 0,
        eof: false,
        ready: base + script.start,
        pause: script.pause,
        answers: Vec::new(),
    };
    let worker = |_| Worker {
        take: Take::with_capacity(config.max_batch),
        until: None,
        running: false,
        gone: false,
    };
    let mut sim = Sim {
        config,
        service: Service {
            metrics,
            catalog: registry.catalog(),
            degraded: Vec::new(),
            default_deadline: config.default_deadline,
            draining: Default::default(),
            shutdown: Default::default(),
        },
        registry,
        faults: config
            .panic_on
            .and_then(NonZeroU64::new)
            .map(FaultPlan::worker_panic),
        schedule: Schedule::new(
            config.queue_cap,
            config.max_batch,
            config.max_wait,
            config.workers,
        ),
        rng: Rng(config.seed),
        now: base,
        clients: scripts.iter().map(client).collect(),
        workers: (0..config.workers).map(worker).collect(),
        batches: Vec::new(),
        panicked: None,
    };
    let mut drained_at = None;
    loop {
        // Everything that can happen now, in an order drawn from the seed.
        let actors = sim.clients.len() + sim.workers.len();
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut order: Vec<usize> = (0..actors).collect();
            for i in (1..actors).rev() {
                order.swap(i, sim.rng.below(i + 1));
            }
            for actor in order {
                progressed |= match actor.checked_sub(sim.clients.len()) {
                    None => sim.client(actor)?,
                    Some(id) => sim.worker(id),
                };
                let depth = sim.schedule.len();
                let gauge = &sim.service.metrics.queue_depth;
                gauge.store(depth, Ordering::Relaxed);
            }
        }
        if drained_at.is_none() && sim.workers.iter().all(|worker| worker.gone) {
            drained_at = Some(sim.now - base);
        }
        let waiting = sim
            .clients
            .iter()
            .filter(|c| !matches!(c.state, State::Done));
        let waiting = waiting.count();
        if waiting == 0 {
            break;
        }
        let reads = sim
            .clients
            .iter()
            .filter(|c| matches!(c.state, State::Act(Action::Read)));
        let wakes = sim.workers.iter().filter_map(|worker| worker.until);
        let next = reads.map(|client| client.ready).chain(wakes);
        let next = next.filter(|&at| at > sim.now).min();
        prop_assert!(next.is_some(), "{waiting} clients stranded");
        sim.now = next.unwrap_or(sim.now);
    }
    // The run's own drain: every worker leaves the empty queue.
    sim.schedule.drain();
    for id in 0..sim.workers.len() {
        sim.worker(id);
        prop_assert!(
            sim.workers[id].gone,
            "worker {id} stayed on a drained queue"
        );
    }
    let mut responses = Vec::new();
    for client in &sim.clients {
        let (mut wire, mut answers) = (client.answers.as_slice(), Vec::new());
        while let Ok(Parse::Complete { value, consumed }) = http::parse_response(wire) {
            answers.push(value);
            wire = &wire[consumed..];
        }
        prop_assert!(wire.is_empty(), "a torn response");
        responses.push(answers);
    }
    let report = Report {
        responses,
        batches: sim.batches,
        panicked: sim.panicked,
        drained_at,
        metrics: sim.service.metrics.snapshot_json(),
    };
    let drained = sim.service.draining.load(Ordering::SeqCst);
    check(config, scripts, &report, drained)?;
    Ok(report)
}

fn body(response: &Response) -> Json {
    let text = std::str::from_utf8(&response.body).unwrap_or_default();
    jsonio::parse(text).unwrap_or(Json::Null)
}

/// Holds each response to what its request expects.
fn check(
    config: &Config,
    scripts: &[Script],
    report: &Report,
    drained: bool,
) -> Result<(), TestCaseError> {
    let (mut busy, mut expired, mut failed) = (0, 0, 0);
    for (script, responses) in scripts.iter().zip(&report.responses) {
        let answers = responses.len();
        prop_assert!(answers == script.items.len(), "{answers} answers");
        for ((_, expect), response) in script.items.iter().zip(responses) {
            let (status, doc) = (response.status, body(response));
            let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
            let retry = response.header("retry-after") == Some("1");
            let refused = retry && error.starts_with("server is draining");
            let unhealthy = doc.get("status") == Some(&Json::from("draining"));
            let draining = drained && status == 503 && (refused || unhealthy);
            let typed = match expect {
                Expect::Served {
                    offline,
                    single,
                    due,
                } => match status {
                    200 => {
                        let predictions = codec::parse_predictions(&response.body).ok();
                        doc.get("prediction").is_some() == *single
                            && predictions.as_ref() == Some(offline)
                    }
                    503 if error.starts_with("dispatch queue is full") => {
                        busy += 1;
                        retry
                    }
                    504 => {
                        expired += 1;
                        retry && (*due || config.default_deadline.is_some())
                    }
                    500 => {
                        failed += 1;
                        let fault = config
                            .panic_on
                            .map(|n| format!("worker_panic on batch {n}"));
                        fault.is_some_and(|fault| error.contains(&fault))
                    }
                    _ => draining,
                },
                Expect::Live(code) => status == *code || draining,
                Expect::Status(code, close) => {
                    let closes = response.header("connection") == Some("close");
                    status == *code && (closes || !close)
                }
            };
            prop_assert!(typed, "{expect:?} answered {status} {error}");
        }
    }
    prop_assert_eq!(failed, report.panicked.unwrap_or(0));
    prop_assert_eq!(report.counter("jobs_failed"), Some(failed));
    prop_assert_eq!(report.counter("rejected_busy"), Some(busy));
    prop_assert_eq!(report.counter("jobs_expired"), Some(expired));
    Ok(())
}

/// A run drawn from `seed`: the knobs, and a few dozen clients of up to
/// four requests, some ending on a head the server refuses.
fn random_run(seed: u64) -> (Config, Vec<Script>) {
    let mut rng = Rng(seed);
    let config = Config {
        workers: 1 + rng.below(3),
        max_batch: [1, 4, 16][rng.below(3)],
        max_wait: Duration::from_millis(rng.below(2) as u64),
        queue_cap: 1 + rng.below(8),
        default_deadline: (rng.below(2) == 0).then_some(Duration::from_millis(30)),
        panic_on: (rng.below(2) == 0).then(|| 1 + rng.below(6) as u64),
        per_batch: Duration::from_micros([100, 2000][rng.below(2)]),
        per_observation: Duration::from_micros([10, 1000][rng.below(2)]),
        seed: rng.next(),
    };
    let pool = &fixture().0;
    let mut wide = pool[0].clone();
    for channel in [&mut wide.min, &mut wide.max, &mut wide.mean] {
        channel.push(-100.0);
    }
    let item = |rng: &mut Rng, last: bool| match rng.below(40) {
        0..=23 => {
            let longest = [2, 8][rng.below(2)];
            let len = 1 + rng.below(longest);
            let first = rng.below(pool.len() - len + 1);
            let deadline = (rng.below(3) == 0).then(|| 1 + rng.below(40) as u64);
            let single = rng.below(2) == 0;
            served(rng.below(MODELS.len()), first, len, single, deadline)
        }
        24 => (request("nope", &pool[..1], false, None), Expect::Live(404)),
        25 => (
            request("knn", &[wide.clone()], false, None),
            Expect::Live(400),
        ),
        26 => (wire(Method::Post, "/v1/localize", b"{"), Expect::Live(400)),
        27 => get("/healthz", Expect::Live(200)),
        28 => get("/v1/models", Expect::Status(200, false)),
        29 => get("/metrics", Expect::Status(200, false)),
        30 => get("/nope", Expect::Status(404, false)),
        // One run in five or so drains the server.
        31 if rng.below(8) == 0 => drain(),
        // Bytes with no method, then a blank line.
        32..=34 if last => {
            let garbage = (0..rng.below(24)).map(|_| b'!' + rng.below(90) as u8);
            (
                garbage.chain(*b"\r\n\r\n").collect(),
                Expect::Status(400, true),
            )
        }
        35 if last => (vec![b'A'; MAX_HEAD_BYTES + 1], Expect::Status(431, true)),
        _ => served(1, 0, 1, true, None),
    };
    let mut scripts = Vec::new();
    for _ in 0..12 + rng.below(21) {
        let count = 1 + rng.below(4);
        let items = (0..count).map(|i| item(&mut rng, i + 1 == count)).collect();
        scripts.push(Script {
            items,
            start: Duration::from_micros(rng.below(20_000) as u64),
            pause: Duration::from_millis([0, 1, 5][rng.below(3)]),
        });
    }
    (config, scripts)
}

/// Seeds each scenario runs under: its outcome may not depend on the order
/// of what happens at one instant.
const SEEDS: std::ops::Range<u64> = 1..5;

/// `config` with batches of one, each observation running 400 ms.
fn slow(config: Config) -> Config {
    Config {
        max_batch: 1,
        per_batch: Duration::ZERO,
        per_observation: Duration::from_millis(400),
        ..config
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random knobs, clients, scripts, chunkings and interleavings keep
    /// every property of the module docs.
    #[test]
    fn every_run_answers_each_request_once_typed_and_bit_identical(seed in 0u64..u64::MAX) {
        let (config, scripts) = random_run(seed);
        run(&config, &scripts)?;
    }
}

#[test]
fn coalesced_responses_are_bit_identical_to_offline_localize_batch() {
    // Four clients send disjoint bulk slices of five at once to one
    // worker: the others queue while it runs a batch, so a later batch
    // holds several requests. `run` holds every 200 to offline.
    let pool = fixture().0.len();
    let slices = |client: usize| (client * 5..pool).step_by(20);
    let slices = |client| {
        slices(client)
            .map(|at| bulk(at, 5.min(pool - at)))
            .collect()
    };
    let scripts: Vec<_> = (0..4).map(|client| script(slices(client), 0)).collect();
    for seed in SEEDS {
        let max_wait = Duration::from_millis(5);
        let config = Config {
            max_batch: 64,
            max_wait,
            seed,
            ..CONFIG
        };
        let report = run(&config, &scripts).unwrap();
        assert_eq!(report.batches.iter().sum::<usize>(), pool);
        assert!(report.statuses().concat().iter().all(|&s| s == 200));
        assert!(
            report.batches.iter().any(|&size| size > 5),
            "{:?}",
            report.batches
        );
    }
}

#[test]
fn full_queue_sheds_load_with_503_and_retry_after() {
    // The worker runs the first request, the second takes the one queue
    // slot, and the third finds the queue full.
    let scripts = [0, 100, 200].map(|start| script(vec![bulk(0, 1)], start));
    for seed in SEEDS {
        let queue_cap = 1;
        let report = run(
            &slow(Config {
                queue_cap,
                seed,
                ..CONFIG
            }),
            &scripts,
        )
        .unwrap();
        assert_eq!(report.statuses(), [[200], [200], [503]]);
        assert_eq!(report.responses[2][0].header("retry-after"), Some("1"));
        assert_eq!(report.counter("rejected_busy"), Some(1));
        assert_eq!(report.counter("server_errors"), Some(0));
    }
}

#[test]
fn stale_deadlines_are_shed_with_504_and_retry_after() {
    // The occupant is taken at once; the next job waits in the queue past
    // its 50 ms deadline, its own or the server's default, and is shed.
    let fifty = Some(Duration::from_millis(50));
    for (own, default_deadline) in [(Some(50), None), (None, fifty)] {
        let stale = served(0, 1, 1, true, own);
        let scripts = [script(vec![bulk(0, 1)], 0), script(vec![stale], 100)];
        for seed in SEEDS {
            let config = slow(Config {
                default_deadline,
                seed,
                ..CONFIG
            });
            let report = run(&config, &scripts).unwrap();
            assert_eq!(report.statuses(), [[200], [504]]);
            assert_eq!(report.responses[1][0].header("retry-after"), Some("1"));
            assert_eq!(report.counter("jobs_expired"), Some(1));
            assert_eq!(report.counter("server_errors"), Some(0));
        }
    }
}

#[test]
fn admin_drain_completes_queued_work_then_refuses_new_work() {
    // One job runs, one is queued, then the drain: later work is refused
    // and health says so, a second drain is idempotent, and both jobs
    // admitted before it are served before the workers leave.
    let scripts = [
        script(vec![bulk(0, 1)], 0),
        script(vec![bulk(1, 1)], 50),
        script(vec![drain()], 100),
        script(vec![bulk(2, 1)], 150),
        script(vec![get("/healthz", Expect::Live(200))], 160),
        script(vec![drain()], 170),
    ];
    for seed in SEEDS {
        let report = run(&slow(Config { seed, ..CONFIG }), &scripts).unwrap();
        let statuses = [[200], [200], [202], [503], [503], [202]];
        assert_eq!(report.statuses(), statuses);
        let field = |client: usize, name| body(&report.responses[client][0]).get(name).cloned();
        assert_eq!(field(2, "already_draining"), Some(Json::from(false)));
        assert_eq!(field(2, "queued"), Some(Json::from(1usize)));
        assert_eq!(report.responses[3][0].header("retry-after"), Some("1"));
        assert_eq!(field(4, "status"), Some(Json::from("draining")));
        assert_eq!(field(5, "already_draining"), Some(Json::from(true)));
        assert_eq!(report.drained_at, Some(Duration::from_millis(800)));
    }
}

#[test]
fn injected_worker_panic_fails_one_batch_and_the_server_recovers_bit_identical() {
    // One keep-alive client: eight single requests, each its own batch,
    // then health, then the whole pool. The third batch panics.
    let pool = fixture().0.len();
    let mut items: Vec<_> = (0..8).map(|at| served(0, at, 1, true, None)).collect();
    items.push(get("/healthz", Expect::Status(200, false)));
    items.push(bulk(0, pool));
    for seed in SEEDS {
        let config = Config {
            max_wait: Duration::from_micros(100),
            panic_on: Some(3),
            seed,
            ..CONFIG
        };
        let report = run(&config, &[script(items.clone(), 0)]).unwrap();
        let statuses = &report.statuses()[0];
        assert_eq!(statuses[..8], [200, 200, 500, 200, 200, 200, 200, 200]);
        let health = body(&report.responses[0][8]);
        assert_eq!(health.get("live_workers"), Some(&Json::from(1usize)));
        assert_eq!(statuses[9], 200);
        assert_eq!(report.counter("jobs_failed"), Some(1));
    }
}

#[test]
fn a_worker_panic_under_concurrent_load_strands_no_client() {
    // Eight clients of forty 4-observation requests against one worker
    // that panics on its 25th batch, under a 500 ms default deadline, and
    // a ninth client sending the whole pool a minute later. `run` fails on
    // a stranded client, an untyped answer or a 200 unlike offline.
    let pool = fixture().0.len();
    let first = |client: usize, request: usize| (client + request * 8) % pool.div_ceil(4) * 4;
    let requests = |client| (0..40).map(move |request| first(client, request));
    let chunks = |client| {
        requests(client)
            .map(|at| bulk(at, 4.min(pool - at)))
            .collect()
    };
    let mut scripts: Vec<_> = (0..8).map(|client| script(chunks(client), 0)).collect();
    scripts.push(script(vec![bulk(0, pool)], 60_000));
    for seed in SEEDS {
        let config = Config {
            max_batch: 8,
            queue_cap: 32,
            default_deadline: Some(Duration::from_millis(500)),
            panic_on: Some(25),
            seed,
            ..CONFIG
        };
        let report = run(&config, &scripts).unwrap();
        let statuses = report.statuses().concat();
        let count = |status| statuses.iter().filter(|&&s| s == status).count();
        assert!(count(500) >= 1 && Some(count(500)) == report.panicked);
        assert_eq!(count(200) + count(500), statuses.len());
        assert_eq!(report.statuses()[8], [200]);
    }
}
