//! `live_learning`: the history's write path under traffic.
//!
//! The workers run `RawLock` background traffic on private locks while the
//! coordinator introduces fresh inversion patterns, each a new lock pair with
//! new sites, with `Config::prediction` on. On its schedule, each pattern
//! runs as two non-overlapping nests in opposite orders on the two workers,
//! so the predictor vaccinates it. Once its signature is in the history the
//! coordinator replays it concurrently: worker 0 takes its outer lock, and only
//! then does worker 1 request its own, so the dangerous interleaving is
//! forced; both meet at a rendezvous and take their inner locks with
//! `lock_timeout`. The history is persisted to a file. This is
//! the only workload that changes the history while traffic reads it:
//! monitor → predictor → `History` add → delta rebuild → save.

use crate::measure::{ns_since, Span};
use crate::*;
use dimmunix_core::{LockSite, Provenance, RawLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Private background locks per worker.
const BG_LOCKS: usize = 4;
/// Patterns a window introduces when it is long enough to space them by at
/// least [`MIN_SPACING`] (fewer otherwise). Below the predictor's default
/// cap of 128 predicted signatures.
const PATTERNS: usize = 96;
/// Closest spacing of two patterns (about two monitor periods).
const MIN_SPACING: Duration = Duration::from_millis(200);
/// How long the coordinator waits for a pattern's vaccine, counted from its
/// second nest or from the window's end, whichever is later, before
/// replaying it anyway (the replay then counts as a failed op). Under full
/// load the monitor falls behind for the whole window, so vaccines can
/// arrive only once the traffic stops.
const IMMUNE_DEADLINE: Duration = Duration::from_secs(30);
/// How often the coordinator polls the history for the oldest pending vaccine.
const POLL: Duration = Duration::from_micros(500);
/// A task a worker has not finished after this long is hung: the run fails.
const TASK_DEADLINE: Duration = Duration::from_secs(10);
/// Timed acquisitions of the replay; generous, so only a real deadlock
/// makes one expire.
const REPLAY_TIMEOUT: Duration = Duration::from_secs(1);
/// How long a replaying worker waits at the rendezvous for its partner. A
/// partner that avoidance made yield never arrives.
const RENDEZVOUS: Duration = Duration::from_millis(5);
/// How long worker 1 waits for worker 0 to hold its outer lock.
const HOLD_WAIT: Duration = Duration::from_secs(2);

/// One inversion pattern: a fresh lock pair and four fresh sites.
struct Pattern {
    a: RawLock,
    b: RawLock,
    ab_outer: LockSite,
    ab_inner: LockSite,
    ba_outer: LockSite,
    ba_inner: LockSite,
}

/// The forced interleaving of one replay.
#[derive(Default)]
struct Rendezvous {
    state: Mutex<(bool, u32)>,
    cv: Condvar,
}

impl Rendezvous {
    fn set_holding(&self) {
        self.state.lock().expect("rendezvous poisoned").0 = true;
        self.cv.notify_all();
    }

    fn wait_holding(&self) -> bool {
        let g = self.state.lock().expect("rendezvous poisoned");
        let (g, _) = self
            .cv
            .wait_timeout_while(g, HOLD_WAIT, |s| !s.0)
            .expect("rendezvous poisoned");
        g.0
    }

    fn arrive(&self) {
        let mut g = self.state.lock().expect("rendezvous poisoned");
        g.1 += 1;
        self.cv.notify_all();
        let _ = self
            .cv
            .wait_timeout_while(g, RENDEZVOUS, |s| s.1 < 2)
            .expect("rendezvous poisoned");
    }
}

#[derive(Clone)]
enum Task {
    /// Lock the pattern's pair once in this worker's order, alone.
    Nest(usize),
    /// Replay the pattern concurrently with the other worker.
    Replay(usize, Arc<Rendezvous>),
}

#[derive(Default)]
struct Mailbox {
    pending: AtomicBool,
    task: Mutex<Option<Task>>,
}

/// Everything a phase shares between its workers and the coordinator.
struct Env {
    rt: Runtime,
    bg: Vec<Vec<(RawLock, LockSite, ReplayLock)>>,
    patterns: Vec<Pattern>,
    mail: Vec<Mailbox>,
    /// One message per finished task.
    done: mpsc::Sender<()>,
    stop: AtomicBool,
    cancels: AtomicU64,
    /// Patterns whose replay failed (an expired acquisition).
    replay_failed: Mutex<Vec<usize>>,
    /// Replays take their outer locks at the inner sites (a planted fault).
    off_site_replay: bool,
}

impl Env {
    fn post(&self, worker: usize, task: Task) {
        *self.mail[worker].task.lock().expect("mailbox poisoned") = Some(task);
        self.mail[worker].pending.store(true, Ordering::Release);
    }
}

fn config(history: &Path, ctx: &Ctx) -> Config {
    Config {
        history_path: Some(history.to_path_buf()),
        prediction: (ctx.fault != Some(Fault::WithholdPrediction))
            .then(dimmunix_core::PredictionConfig::default),
        ..Config::default()
    }
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let seed_hist = ctx.file("live_learning.seed.dlk");
    write_history(ctx, &seed_hist, 64, ("lockSite", "decoy.rs", 1), &[]);
    let hist = ctx.file("live_learning.dlk");
    let run_phase = |mode, secs| phase(ctx, &seed_hist, &hist, mode, secs);
    if trace {
        traced(run_phase, ctx, &hist)
    } else {
        untraced(run_phase, ctx, 1)
    }
}

/// Interns a seeded three-frame site whose innermost frame is unique to
/// `(group, index)`.
fn site(rt: &Runtime, rng: &mut StdRng, group: &str, index: u32) -> LockSite {
    let mut frames: Vec<(&str, &str, u32)> = gen_path(rng, 2, "learn.rs");
    frames.push((group, "learn.rs", index));
    rt.make_site(&frames)
}

fn phase(ctx: &Ctx, seed_hist: &Path, hist: &Path, mode: Mode, secs: f64) -> Phase {
    // Every phase starts from the same seeded history file.
    std::fs::copy(seed_hist, hist).expect("copy the seed history");
    let spacing = MIN_SPACING.max(Duration::from_secs_f64(secs / PATTERNS as f64));
    let n_patterns = (secs / spacing.as_secs_f64()).round() as usize;
    let mut rng = ctx.rng(0x1EA2);
    let due: Vec<Duration> = (0..n_patterns)
        .map(|k| spacing * k as u32 + spacing.mul_f64(f64::from(rng.gen_range(0..250u32)) / 1000.0))
        .collect();

    let setup_t0 = Instant::now();
    let rt = Runtime::new(config(hist, ctx)).expect("runtime over the seed history");
    let (done_tx, done_rx) = mpsc::channel();
    let env = Env {
        bg: (0..CLIENTS)
            .map(|w| {
                (0..BG_LOCKS)
                    .map(|j| {
                        let s = site(&rt, &mut rng, "background", (w * BG_LOCKS + j) as u32);
                        (rt.raw_lock(), s, ReplayLock::new(&rt))
                    })
                    .collect()
            })
            .collect(),
        patterns: (0..n_patterns as u32)
            .map(|k| Pattern {
                a: rt.raw_lock(),
                b: rt.raw_lock(),
                ab_outer: site(&rt, &mut rng, "pattern", 4 * k),
                ab_inner: site(&rt, &mut rng, "pattern", 4 * k + 1),
                ba_outer: site(&rt, &mut rng, "pattern", 4 * k + 2),
                ba_inner: site(&rt, &mut rng, "pattern", 4 * k + 3),
            })
            .collect(),
        mail: (0..CLIENTS).map(|_| Mailbox::default()).collect(),
        done: done_tx,
        stop: AtomicBool::new(false),
        cancels: AtomicU64::new(0),
        replay_failed: Mutex::new(Vec::new()),
        off_site_replay: ctx.fault == Some(Fault::UnvaccinatedReplay),
        rt,
    };
    let rt = &env.rt;
    let monitor = MonitorKind::start(rt, mode);
    let mut stats0 = None;
    let mut immune_ms = Vec::new();
    let mut not_immune = 0_u64;
    // Patterns found in the history before their replay started.
    let mut vaccinated = vec![false; n_patterns];
    // The coordinator outlives the window while late vaccines arrive; the
    // backlog is read when the traffic stops.
    let mut at_end = None;
    let mut coord_spans = SpanLog::new(u8::MAX - 1);
    let clients = run_clients(
        rt,
        setup_t0,
        secs,
        |i, window, log, spans| {
            let done = env.done.clone();
            let mut rng = ctx.rng(0xB6 + i as u64);
            let traced = mode == Mode::Traced;
            while !env.stop.load(Ordering::Acquire) {
                let t0 = Instant::now();
                let slice = window.slice_of(t0);
                if env.mail[i].pending.swap(false, Ordering::Acquire) {
                    let task = env.mail[i].task.lock().expect("mailbox poisoned").take();
                    let task = task.expect("a pending flag comes with a task");
                    run_task(&env, i, task, traced, slice, log, spans);
                    done.send(()).expect("coordinator waits for completions");
                    continue;
                }
                let Some(slice) = slice else {
                    // Window over: wait for the remaining replays without
                    // taking the CPU from the monitor's drain.
                    std::thread::sleep(Duration::from_micros(100));
                    continue;
                };
                let (lock, site, replay) = &env.bg[i][rng.gen_range(0..BG_LOCKS)];
                log.attempted += 1;
                if mode == Mode::Replay {
                    spans.next_op();
                    let t = spans
                        .time(Span::CurrentThread, || rt.current_thread())
                        .expect("worker is registered");
                    let got =
                        replay_acquire(rt, spans, t, replay, site.frames(), site.stack(), None);
                    if got.is_err() {
                        env.cancels.fetch_add(1, Ordering::Relaxed);
                        log.failed += 1;
                        continue;
                    }
                    log.acquire(slice, ns_since(t0));
                    // SAFETY: acquired just above on this thread.
                    unsafe { replay_release(rt, spans, t, replay) };
                } else {
                    lock.lock(site);
                    let ns = if traced {
                        spans.end(Span::RawLock, t0)
                    } else {
                        ns_since(t0)
                    };
                    log.acquire(slice, ns);
                    if traced {
                        spans.time(Span::RawUnlock, || lock.unlock());
                        spans.next_op();
                    } else {
                        lock.unlock();
                    }
                }
                log.ops[slice] += 1;
            }
        },
        |window| {
            stats0 = Some(rt.stats());
            let traced = mode != Mode::Plain;
            // Nested patterns awaiting their vaccine, oldest first, with the
            // time their second nest finished; then those ready to replay.
            let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
            let mut ready: VecDeque<usize> = VecDeque::new();
            let mut next = 0;
            loop {
                let now = Instant::now();
                if at_end.is_none() && now >= window.end() {
                    at_end = Some(rt.stats());
                }
                let more = next < due.len() && window.start + due[next] < window.end();
                if more && now >= window.start + due[next] {
                    env.post(0, Task::Nest(next));
                    await_tasks(&done_rx, 1, next);
                    env.post(1, Task::Nest(next));
                    await_tasks(&done_rx, 1, next);
                    pending.push_back((next, Instant::now()));
                    next += 1;
                    continue;
                }
                // The predictor archives patterns in the order it saw them,
                // so polling the oldest pending one suffices.
                while let Some(&(k, t_second)) = pending.front() {
                    let p = &env.patterns[k];
                    let stacks = [p.ab_outer.stack(), p.ba_outer.stack()];
                    let found = if traced {
                        coord_spans.time(Span::HistoryRead, || rt.history().find_by_stacks(&stacks))
                    } else {
                        rt.history().find_by_stacks(&stacks)
                    };
                    if found.is_some() {
                        immune_ms.push(t_second.elapsed().as_secs_f64() * 1e3);
                        vaccinated[k] = true;
                    } else if now >= t_second.max(window.end()) + IMMUNE_DEADLINE {
                        not_immune += 1;
                    } else {
                        break;
                    }
                    pending.pop_front();
                    ready.push_back(k);
                }
                if let Some(k) = ready.pop_front() {
                    let rv = Arc::new(Rendezvous::default());
                    env.post(0, Task::Replay(k, Arc::clone(&rv)));
                    env.post(1, Task::Replay(k, rv));
                    await_tasks(&done_rx, CLIENTS, k);
                    continue;
                }
                if !more && pending.is_empty() {
                    break;
                }
                std::thread::sleep(POLL);
            }
            idle_until_end(window);
            at_end.get_or_insert_with(|| rt.stats());
            env.stop.store(true, Ordering::Release);
        },
    );

    let mon = monitor.stop(rt);
    let stats0 = stats0.expect("window started");
    let mut checks = Checks::default();
    let attempted_patterns = immune_ms.len() as u64 + not_immune;
    for (k, p) in env
        .patterns
        .iter()
        .enumerate()
        .take(attempted_patterns as usize)
    {
        let sig = rt
            .history()
            .find_by_stacks(&[p.ab_outer.stack(), p.ba_outer.stack()]);
        let provenance = sig.map(|s| s.provenance);
        checks.check(provenance == Some(Provenance::Predicted), || {
            format!("live_learning: pattern {k} is in the history as {provenance:?}, not Predicted")
        });
    }
    // The property the vaccine must guarantee: a pattern in the history
    // before its replay does not deadlock on it.
    let mut failed = std::mem::take(&mut *env.replay_failed.lock().expect("failure list poisoned"));
    failed.sort_unstable();
    failed.dedup();
    for k in failed {
        checks.check(!vaccinated[k], || {
            format!("live_learning: pattern {k} was vaccinated before its replay and deadlocked on replay")
        });
    }
    let mut p = Phase::assemble(
        rt,
        clients,
        stats0,
        env.cancels.load(Ordering::Relaxed),
        mon,
        vec![coord_spans],
        immune_ms,
        checks,
    );
    // A pattern that was not yet vaccinated when its replay started is a
    // failed op.
    p.e2e.failed += not_immune;
    let at_end: StatsSnapshot = at_end.expect("coordinator read the stats at window end");
    p.backlog_end = events_emitted(&at_end, p.cancels).saturating_sub(at_end.events_processed);
    p
}

/// Waits for `n` task completions of pattern `k`. A worker that never
/// finishes its task is hung, and the process cannot join it: the run
/// fails here, without a result.
fn await_tasks(done: &mpsc::Receiver<()>, n: usize, k: usize) {
    for _ in 0..n {
        if done.recv_timeout(TASK_DEADLINE).is_err() {
            eprintln!(
                "costbench: check failed: live_learning: a task of pattern {k} did not complete"
            );
            std::process::exit(2);
        }
    }
}

/// Runs one coordinator task on worker `w`; an expired acquisition fails the op.
fn run_task(
    env: &Env,
    w: usize,
    task: Task,
    traced: bool,
    slice: Option<usize>,
    log: &mut ClientLog,
    spans: &mut SpanLog,
) {
    let mut ok = true;
    let mut timed_lock = |log: &mut ClientLog, spans: &mut SpanLog, f: &dyn Fn() -> bool| {
        let t0 = Instant::now();
        let got = f();
        let ns = if traced {
            spans.end(Span::RawLock, t0)
        } else {
            ns_since(t0)
        };
        if let Some(s) = slice {
            log.acquire(s, ns);
        }
        if !got {
            ok = false;
        }
        got
    };
    let unlock = |spans: &mut SpanLog, l: &RawLock| {
        if traced {
            spans.time(Span::RawUnlock, || l.unlock());
        } else {
            l.unlock();
        }
    };
    let (k, rv) = match task {
        Task::Nest(k) => (k, None),
        Task::Replay(k, rv) => (k, Some(rv)),
    };
    let replay = rv.is_some();
    let p = &env.patterns[k];
    let (first, second, mut outer_site, mut inner_site) = if w == 0 {
        (&p.a, &p.b, &p.ab_outer, &p.ab_inner)
    } else {
        (&p.b, &p.a, &p.ba_outer, &p.ba_inner)
    };
    if replay && env.off_site_replay {
        std::mem::swap(&mut outer_site, &mut inner_site);
    }
    log.attempted += 1;
    match rv {
        None => {
            timed_lock(log, spans, &|| {
                first.lock(outer_site);
                true
            });
            timed_lock(log, spans, &|| {
                second.lock(inner_site);
                true
            });
            unlock(spans, second);
            unlock(spans, first);
        }
        Some(rv) => {
            if w == 1 && !rv.wait_holding() {
                log.failed += 1;
                env.replay_failed
                    .lock()
                    .expect("failure list poisoned")
                    .push(k);
                return;
            }
            if timed_lock(log, spans, &|| {
                first.lock_timeout(outer_site, REPLAY_TIMEOUT)
            }) {
                if w == 0 {
                    rv.set_holding();
                }
                rv.arrive();
                if timed_lock(log, spans, &|| {
                    second.lock_timeout(inner_site, REPLAY_TIMEOUT)
                }) {
                    unlock(spans, second);
                }
                unlock(spans, first);
            } else if w == 0 {
                rv.set_holding();
            }
        }
    }
    if ok {
        if let Some(s) = slice {
            log.ops[s] += 1;
        }
    } else {
        env.cancels.fetch_add(1, Ordering::Relaxed);
        log.failed += 1;
        if replay {
            env.replay_failed
                .lock()
                .expect("failure list poisoned")
                .push(k);
        }
    }
}
