//! The batcher's schedule: every decision of the dispatch queue, made on
//! the instant it is handed.
//!
//! [`Schedule`] holds the queued jobs and decides admission against the
//! queue's capacity, what a worker takes (carry-over at `max_batch`, expiry
//! at take time), how long an opt-in hold lasts, and when a worker leaves.
//! It holds no lock, reads no clock and allocates nothing of its own: it
//! moves jobs into the buffers of the worker's [`Take`]. The batcher's
//! `JobQueue` is the shell around it. The shell takes the lock, reads
//! `Instant::now()`, asks [`Schedule::take`] and waits on its condvar for
//! as long as the [`Decision`] says. So the schedule is tested in virtual
//! time, by properties over random sequences of pushes, takes, drains and
//! clock steps, with no thread and no sleep.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::batcher::{Job, SubmitError};

/// The queued jobs, whether the queue is closed, and the knobs that decide
/// what a worker takes.
pub(crate) struct Schedule {
    jobs: VecDeque<Job>,
    /// No push is admitted; workers take what is queued, then leave.
    closed: bool,
    /// Dispatch workers not yet gone. A worker leaves only once the queue
    /// is closed and empty, so zero means a drain is complete.
    workers: usize,
    /// Capacity in jobs; a full queue sheds load.
    cap: usize,
    /// Observations per batch, at least 1.
    max_batch: usize,
    /// The opt-in hold after a worker's first take.
    max_wait: Duration,
}

/// What a worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Run the take's batch and answer its expired jobs. The batch is
    /// empty only when every job taken had expired.
    Run,
    /// Hold the batch open: ask again at this instant, or sooner when a
    /// push or a close wakes the worker.
    WaitUntil(Instant),
    /// Ask again when a push or a close wakes the worker: nothing is
    /// queued, or the hold's end is past any instant.
    WaitForWork,
    /// The queue is closed and empty: the worker leaves.
    Leave,
}

/// One worker's take: the batch it holds, the jobs it shed, and its hold.
/// A dispatch worker keeps one for its whole life, so the buffers are
/// allocated once.
pub(crate) struct Take {
    pub(crate) batch: Vec<Job>,
    pub(crate) expired: Vec<Job>,
    /// Observations in `batch`.
    observations: usize,
    /// The hold's end while `batch` is held; `None` when `max_wait` after
    /// the first take is past any instant, so only a full batch, a held
    /// deadline or a close ends the hold.
    end: Option<Instant>,
}

impl Take {
    pub(crate) fn with_capacity(jobs: usize) -> Take {
        Take {
            batch: Vec::with_capacity(jobs),
            expired: Vec::with_capacity(jobs),
            observations: 0,
            end: None,
        }
    }

    /// Empties the take for the next one, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.batch.clear();
        self.expired.clear();
        self.observations = 0;
        self.end = None;
    }
}

impl Schedule {
    /// A zero `cap` or `max_batch` is read as 1: a zero batch would take
    /// nothing and spin.
    pub(crate) fn new(cap: usize, max_batch: usize, max_wait: Duration, workers: usize) -> Self {
        Schedule {
            jobs: VecDeque::new(),
            closed: false,
            workers,
            cap: cap.max(1),
            max_batch: max_batch.max(1),
            max_wait,
        }
    }

    /// Jobs queued and not yet taken.
    pub(crate) fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Admits `job` unless the queue is closed or full; a refused job is
    /// dropped and nothing changes.
    pub(crate) fn push(&mut self, job: Job) -> Result<(), SubmitError> {
        if self.closed {
            return Err(SubmitError::Closed);
        }
        if self.jobs.len() >= self.cap {
            return Err(SubmitError::Busy);
        }
        self.jobs.push_back(job);
        Ok(())
    }

    /// Takes queued jobs into `take` at `now` and says what the worker does
    /// next. A take starts at the first call that finds a job queued; ask
    /// again with the same `take` after a wait, and [`Take::clear`] it
    /// once it runs (a take that waits holds a batch, so an empty batch
    /// means a take not yet started).
    ///
    /// Jobs are taken in order until `max_batch` observations are held or
    /// the front job would overflow it (it stays queued for the next
    /// batch; only a lone job larger than the cap runs alone). A job whose
    /// deadline is at or before `now` goes to `take.expired` and counts
    /// towards nothing. With a zero `max_wait` the batch runs at once; a
    /// non-zero one holds it open until `max_wait` after the take started
    /// or the earliest deadline among the held jobs, whichever comes
    /// first, unless it fills or the queue closes.
    pub(crate) fn take(&mut self, now: Instant, take: &mut Take) -> Decision {
        if take.batch.is_empty() {
            if self.jobs.is_empty() {
                return if self.closed {
                    Decision::Leave
                } else {
                    Decision::WaitForWork
                };
            }
            take.end = now.checked_add(self.max_wait);
        }
        while take.observations < self.max_batch {
            let Some(front) = self.jobs.front() else {
                break;
            };
            let stale = front.deadline.is_some_and(|deadline| deadline <= now);
            let len = front.observations.len();
            if !stale && !take.batch.is_empty() && take.observations + len > self.max_batch {
                break;
            }
            let Some(job) = self.jobs.pop_front() else {
                break;
            };
            if stale {
                take.expired.push(job);
                continue;
            }
            if let Some(deadline) = job.deadline {
                take.end = Some(take.end.map_or(deadline, |end| end.min(deadline)));
            }
            take.observations += len;
            take.batch.push(job);
        }
        // A job still queued did not fit: the batch is as full as it gets.
        if take.batch.is_empty()
            || take.observations >= self.max_batch
            || !self.jobs.is_empty()
            || self.closed
        {
            return Decision::Run;
        }
        match take.end {
            Some(end) if end > now => Decision::WaitUntil(end),
            Some(_) => Decision::Run,
            None => Decision::WaitForWork,
        }
    }

    /// Closes the queue but keeps its jobs: workers take them, then leave.
    pub(crate) fn drain(&mut self) {
        self.closed = true;
    }

    /// Closes the queue and hands back its jobs, for the caller to fail.
    pub(crate) fn close(&mut self) -> VecDeque<Job> {
        self.closed = true;
        std::mem::take(&mut self.jobs)
    }

    /// A dispatch worker left: its take said [`Decision::Leave`].
    pub(crate) fn leave(&mut self) {
        self.workers = self.workers.saturating_sub(1);
    }

    /// Dispatch workers not yet gone.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingerprint::FingerprintObservation;
    use proptest::prelude::*;
    use std::sync::mpsc;

    const WORKERS: usize = 3;
    /// The run's clock steps, deadlines and holds are whole ticks, so a
    /// deadline often falls exactly on a take instant.
    const TICK: Duration = Duration::from_micros(50);

    /// One step of a run in virtual time.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        /// A job of `len` observations arrives, with a deadline this many
        /// ticks after the run's start, if any.
        Push { len: usize, deadline: Option<u32> },
        /// A worker asks what to do next.
        Take(usize),
        /// The queue closes for new work; what is queued is still served.
        Drain,
        /// The clock moves on this many ticks.
        Advance(u32),
    }

    fn event() -> impl Strategy<Value = Event> {
        (0u32..32, 1usize..6, 0u32..40, 0usize..WORKERS).prop_map(|(kind, len, ticks, worker)| {
            match kind {
                0..=11 => Event::Push {
                    len,
                    deadline: (kind % 3 != 0).then_some(ticks),
                },
                12..=23 => Event::Take(worker),
                24 => Event::Drain,
                _ => Event::Advance(ticks % 4),
            }
        })
    }

    /// A job whose model names its submission index.
    fn job(id: usize, len: usize, deadline: Option<Instant>) -> Job {
        let (reply, _) = mpsc::sync_channel(1);
        let observation = FingerprintObservation {
            rp_label: 0,
            device: String::new(),
            min: Vec::new(),
            max: Vec::new(),
            mean: Vec::new(),
        };
        Job {
            model: id.to_string(),
            observations: vec![observation; len],
            admitted: Instant::now(),
            deadline,
            reply,
        }
    }

    fn id(job: &Job) -> usize {
        job.model.parse().unwrap()
    }

    /// A worker of the run: its take, the instant the take started, and
    /// whether it left.
    struct Worker {
        take: Take,
        started: Option<Instant>,
        gone: bool,
    }

    /// A run in virtual time: the schedule, the clock, and what the
    /// schedule must hold.
    struct Sim {
        schedule: Schedule,
        now: Instant,
        closed: bool,
        max_batch: usize,
        max_wait: Duration,
        /// The queue as `(id, observations, deadline)`.
        queued: VecDeque<(usize, usize, Option<Instant>)>,
        /// How often each job left the queue, in a batch or expired.
        outcomes: Vec<u32>,
    }

    impl Sim {
        /// Asks `worker` what to do now and checks the answer against
        /// every property of the schedule.
        fn ask(&mut self, worker: &mut Worker) -> Result<(), TestCaseError> {
            let (now, take) = (self.now, &mut worker.take);
            let (held, shed) = (take.batch.len(), take.expired.len());
            if worker.started.is_none() && !self.queued.is_empty() {
                worker.started = Some(now);
            }
            let decision = self.schedule.take(now, take);

            // FIFO: one call takes a prefix of the queue, in order.
            let taken: Vec<usize> = take.batch[held..].iter().map(id).collect();
            let dropped: Vec<usize> = take.expired[shed..].iter().map(id).collect();
            let mut popped: Vec<usize> = taken.iter().chain(&dropped).copied().collect();
            popped.sort_unstable();
            let front: Vec<_> = self.queued.drain(..popped.len()).collect();
            prop_assert_eq!(&popped, &front.iter().map(|j| j.0).collect::<Vec<_>>());
            prop_assert!(taken.is_sorted() && dropped.is_sorted());
            prop_assert_eq!(self.schedule.len(), self.queued.len());
            // A job expires if and only if its deadline is at or before
            // the take instant.
            for &(id, _, deadline) in &front {
                let stale = deadline.is_some_and(|deadline| deadline <= now);
                prop_assert!(stale == dropped.contains(&id), "job {id} at {now:?}");
            }

            let observations: usize = take.batch.iter().map(|j| j.observations.len()).sum();
            let cap = self.max_batch.max(1);
            let waits = matches!(decision, Decision::WaitUntil(_) | Decision::WaitForWork);
            if self.max_wait.is_zero() {
                prop_assert!(!waits || self.queued.is_empty(), "waited on a queued job");
            }
            if !take.batch.is_empty() {
                // A hold ends at first take + `max_wait` or the earliest
                // held deadline, whichever comes first, or sooner when the
                // batch fills, a job does not fit or the queue closes;
                // nothing else ends it.
                let end = worker
                    .started
                    .and_then(|start| start.checked_add(self.max_wait));
                let end = take
                    .batch
                    .iter()
                    .filter_map(|j| j.deadline)
                    .chain(end)
                    .min();
                let ends_early = self.closed || observations >= cap || !self.queued.is_empty();
                let kept = match decision {
                    Decision::WaitUntil(until) => Some(until) == end && until > now && !ends_early,
                    Decision::WaitForWork => end.is_none() && !ends_early,
                    Decision::Run => ends_early || end.is_some_and(|end| end <= now),
                    Decision::Leave => false,
                };
                prop_assert!(kept, "{decision:?} at {now:?}, hold end {end:?}");
            }
            match decision {
                Decision::Run => {
                    prop_assert!(!(take.batch.is_empty() && take.expired.is_empty()));
                    // No batch is larger than `max_batch` unless it is one
                    // job, and none stops short of it while a job that fits
                    // is queued.
                    prop_assert!(observations <= cap || take.batch.len() == 1);
                    if let Some(&(_, len, _)) = self.queued.front() {
                        prop_assert!(observations >= cap || observations + len > cap);
                    }
                    for job in take.batch.iter().chain(&take.expired) {
                        self.outcomes[id(job)] += 1;
                    }
                    take.clear();
                    worker.started = None;
                }
                Decision::Leave => {
                    prop_assert!(self.closed && self.queued.is_empty() && take.batch.is_empty());
                    worker.gone = true;
                }
                // An idle worker waits only on an empty queue.
                Decision::WaitUntil(_) | Decision::WaitForWork => {
                    prop_assert!(!take.batch.is_empty() || self.queued.is_empty());
                }
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random pushes, takes, drains and clock steps on up to three
        /// workers keep every property of the schedule, and once the queue
        /// is drained every admitted job has left it exactly once.
        #[test]
        fn every_event_sequence_keeps_the_schedule_contract(
            events in proptest::collection::vec(event(), 0..80),
            max_batch in (0usize..4).prop_map(|k| [0, 1, 3, 8][k]),
            max_wait in (0usize..4).prop_map(|k| {
                [Duration::ZERO, TICK, TICK * 20, Duration::MAX][k]
            }),
            cap in 1usize..6,
            workers in 1usize..=WORKERS,
        ) {
            let base = Instant::now();
            let mut sim = Sim {
                schedule: Schedule::new(cap, max_batch, max_wait, workers),
                now: base,
                closed: false,
                max_batch,
                max_wait,
                queued: VecDeque::new(),
                outcomes: vec![0; events.len()],
            };
            let mut pool: Vec<Worker> = (0..workers)
                .map(|_| Worker { take: Take::with_capacity(4), started: None, gone: false })
                .collect();
            let mut admitted = vec![false; events.len()];
            for (id, &event) in events.iter().enumerate() {
                match event {
                    Event::Push { len, deadline } => {
                        // A refused push changes nothing.
                        let deadline = deadline.map(|ticks| base + TICK * ticks);
                        let expected = if sim.closed {
                            Err(SubmitError::Closed)
                        } else if sim.queued.len() >= cap {
                            Err(SubmitError::Busy)
                        } else {
                            Ok(())
                        };
                        prop_assert_eq!(sim.schedule.push(job(id, len, deadline)), expected);
                        if expected.is_ok() {
                            sim.queued.push_back((id, len, deadline));
                            admitted[id] = true;
                        }
                        prop_assert_eq!(sim.schedule.len(), sim.queued.len());
                    }
                    Event::Take(w) => {
                        let worker = &mut pool[w % workers];
                        if !worker.gone {
                            sim.ask(worker)?;
                        }
                    }
                    Event::Drain => {
                        sim.schedule.drain();
                        sim.closed = true;
                    }
                    Event::Advance(ticks) => sim.now += TICK * ticks,
                }
            }
            sim.schedule.drain();
            sim.closed = true;
            for _ in 0..=events.len() {
                for worker in pool.iter_mut().filter(|worker| !worker.gone) {
                    sim.ask(worker)?;
                }
            }
            prop_assert!(pool.iter().all(|worker| worker.gone), "a worker never left");
            for (id, &count) in sim.outcomes.iter().enumerate() {
                prop_assert!(count == u32::from(admitted[id]), "job {id} left {count} times");
            }
        }
    }
}
