//! `vital-serve` — the online localization server.
//!
//! ```text
//! vital-serve --checkpoint-dir checkpoints/ [--addr 127.0.0.1:8077]
//!             [--max-batch 32] [--max-wait-us 0] [--queue-cap 256]
//!             [--workers N] [--default-deadline-ms N]
//! ```
//!
//! Loads every `*.vckpt` checkpoint in `--checkpoint-dir` (any of the six
//! localizer kinds) once, on the main thread, then serves
//! `POST /v1/localize`, `GET /v1/models`, `GET /healthz`, `GET /metrics`
//! and `POST /admin/drain` until stopped. `--workers` sets the number of
//! dispatch workers pulling micro-batches from the shared queue (default:
//! the machine's available cores); all of them run inference on the same
//! `Arc`-shared weights, so replication costs no memory. Each worker
//! computes its batches on its own thread, so workers are the one
//! parallelism knob: a second core pays as a second worker.
//!
//! Every argument is a known flag followed by its value. An unknown flag
//! (a typo, or one that no longer exists), a flag without a value
//! and a stray value each stop the boot with a message naming it and the
//! usage line.
//!
//! Fault tolerance:
//!
//! * A checkpoint that fails to load degrades that one model (warned here,
//!   reported by `GET /v1/models`) instead of aborting the boot.
//! * `--default-deadline-ms N` sheds jobs still queued after N ms with
//!   `504` (0 disables; requests can override with their own
//!   `deadline_ms` field).
//! * SIGINT/SIGTERM trigger a graceful drain: stop admitting, finish the
//!   queued jobs, then exit — same path as `POST /admin/drain`.
//!
//! The SIMD dispatch level is resolved before anything else and printed in
//! the listening banner (`simd=avx512` on an AVX-512F host, `simd=avx2` on
//! another AVX2 one). A `VITAL_SIMD` value that names no level, or is not
//! UTF-8, stops the boot with an error naming the variable and the value,
//! instead of a server that answers every request with `500`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use serve::codec::MAX_DEADLINE_MS;
use serve::{cli, BatcherConfig, Registry, Server, ServerConfig, DRAIN_GRACE};

/// Every flag `vital-serve` takes; each takes one value.
const FLAGS: [&str; 7] = [
    "--checkpoint-dir",
    "--addr",
    "--max-batch",
    "--max-wait-us",
    "--queue-cap",
    "--workers",
    "--default-deadline-ms",
];

struct Args {
    addr: String,
    checkpoint_dir: PathBuf,
    max_batch: usize,
    max_wait_us: u64,
    queue_cap: usize,
    workers: usize,
    default_deadline: Option<Duration>,
}

fn usage() -> String {
    "usage: vital-serve --checkpoint-dir DIR [--addr HOST:PORT] [--max-batch N] \
     [--max-wait-us 0] [--queue-cap N] [--workers N] [--default-deadline-ms N]"
        .to_string()
}

/// Default worker count: one dispatch worker per available core.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses `args` (the program name excluded).
fn parse_args(args: &[String]) -> Result<Args, String> {
    let flags = cli::Flags::parse(args, &FLAGS).map_err(|e| format!("{e}; {}", usage()))?;
    let checkpoint_dir = flags
        .value("--checkpoint-dir")
        .map(PathBuf::from)
        .ok_or_else(usage)?;
    let deadline_ms = (flags.usize("--default-deadline-ms", 0)? as u64).min(MAX_DEADLINE_MS);
    Ok(Args {
        addr: flags
            .value("--addr")
            .unwrap_or("127.0.0.1:8077")
            .to_string(),
        checkpoint_dir,
        max_batch: flags.usize("--max-batch", 32)?.max(1),
        max_wait_us: flags.usize("--max-wait-us", 0)? as u64,
        queue_cap: flags.usize("--queue-cap", 256)?.max(1),
        workers: flags.usize("--workers", default_workers())?.max(1),
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
    })
}

/// SIGINT/SIGTERM → graceful drain. Raw libc `signal(2)` via an FFI
/// declaration (the workspace is dependency-free); the handler only flips
/// an atomic — a watcher thread does the actual drain, because nothing
/// non-async-signal-safe may run inside a signal handler.
#[cfg(unix)]
mod drain_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler, polled by the watcher thread.
    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn note(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the flag-setting handler for SIGINT and SIGTERM.
    pub fn install() {
        // SAFETY: `signal` is libc's `signal(2)`, declared above with its C
        // signature (an `int` and a handler, returning the previous handler
        // as a pointer-sized value we ignore). SIGINT and SIGTERM are valid
        // catchable signals, and `note` is an `extern "C" fn(i32)` that only
        // stores to a static atomic, which is async-signal-safe.
        unsafe {
            signal(SIGINT, note);
            signal(SIGTERM, note);
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let level = simd::try_active_level()?;
    let registry = Registry::from_checkpoint_dir(&args.checkpoint_dir)?;
    for (name, error) in registry.degraded() {
        eprintln!("vital-serve: WARNING: model {name:?} degraded at boot: {error}");
    }
    let catalog: Vec<String> = registry
        .catalog()
        .iter()
        .map(|(name, kind, _)| format!("{name} ({kind})"))
        .collect();
    let server = Server::start(
        ServerConfig {
            addr: args.addr,
            batcher: BatcherConfig {
                max_batch: args.max_batch,
                max_wait: Duration::from_micros(args.max_wait_us),
                queue_cap: args.queue_cap,
                workers: args.workers,
                ..BatcherConfig::default()
            },
            default_deadline: args.default_deadline,
        },
        registry,
    )?;
    println!(
        "vital-serve listening on http://{} — models: {}; max_batch={} max_wait_us={} \
         queue_cap={} workers={} default_deadline_ms={} simd={}",
        server.addr(),
        catalog.join(", "),
        args.max_batch,
        args.max_wait_us,
        args.queue_cap,
        args.workers,
        args.default_deadline
            .map(|d| d.as_millis().to_string())
            .unwrap_or_else(|| "off".to_string()),
        level.name(),
    );

    #[cfg(unix)]
    {
        use std::sync::atomic::Ordering;
        drain_signal::install();
        let trigger = server.drain_trigger();
        let watcher = std::thread::Builder::new()
            .name("vital-serve-signal".into())
            .spawn(move || loop {
                if drain_signal::REQUESTED.load(Ordering::SeqCst) {
                    eprintln!("vital-serve: signal received — draining (finishing queued jobs)");
                    let drained = trigger.drain(DRAIN_GRACE);
                    if !drained {
                        eprintln!("vital-serve: drain grace expired with jobs still queued");
                    }
                    return;
                }
                std::thread::park_timeout(Duration::from_millis(200));
            });
        if let Err(error) = watcher {
            eprintln!("vital-serve: WARNING: cannot spawn signal watcher: {error}");
        }
    }

    server.join();
    println!("vital-serve: stopped");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("vital-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
