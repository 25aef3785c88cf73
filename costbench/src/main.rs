//! Absolute-cost benchmark of the Dimmunix lock path.
//!
//! Runs one of three closed-loop workloads (two worker threads plus a
//! mostly idle coordinator thread) through the public lock types with the
//! monitor live, checks the outputs, and prints the metrics. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs a
//! separate traced replay and prints the per-layer metrics. See README.md.
//!
//! ```text
//! costbench --workload <private_mutex|hot_inversions|live_learning>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--fault withhold-inversions|withhold-prediction|unvaccinated-replay]
//!           [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it is the result row with the run metadata and every metric's median
//! and quartiles. A failed correctness check prints the failures to
//! standard error and exits with code 2 without a result.

mod hot_inversions;
mod live_learning;
mod measure;
mod private_mutex;

use dimmunix_bench::siggen::{synthesize_history, FramePath};
use dimmunix_core::{
    context, Config, CycleKind, Decision, FrameId, FrameTable, History, LockId, Runtime, StackId,
    StackTable, StatsSnapshot, ThreadId,
};
use measure::{events_emitted, ClientLog, EndToEnd, MonitorLog, SpanLog, Summary, Window, SLICES};
use parking_lot::lock_api::RawMutex as _;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::panic::Location;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Timed set-ups in an untraced run; `setup_s` is their median. They are
/// spread over the whole run (see [`untraced`]) rather than one stretch of
/// host noise.
const SETUP_REPS: usize = 41;

/// Pause before each timed set-up. Back-to-back set-ups run on warm caches
/// and follow the host's short bursts of load; paused ones are cold, as a
/// program's one real set-up is, and steadier from run to run.
const SETUP_PAUSE: Duration = Duration::from_millis(50);

/// Worker threads (closed-loop clients) per workload.
pub const CLIENTS: usize = 2;

/// A planted fault for the self-test: the run must fail a check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// `hot_inversions` loads its history without the inversion
    /// signatures, so AB/BA deadlocks happen and inner acquisitions expire.
    WithholdInversions,
    /// `live_learning` runs with `Config::prediction` off, so no pattern is
    /// vaccinated before its replay and the forced interleaving deadlocks.
    WithholdPrediction,
    /// `live_learning` replays each vaccinated pattern with its outer locks
    /// taken at the inner sites, stacks no vaccine names, so the forced
    /// interleaving deadlocks although the pattern is in the history.
    UnvaccinatedReplay,
}

/// What one invocation runs on.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub work: PathBuf,
    pub fault: Option<Fault>,
}

impl Ctx {
    /// A generator for one named input stream; every generated input
    /// derives from the seed argument.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// How a phase drives the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the front-ends only, with `Runtime::spawn_monitor`.
    Plain,
    /// Front-end calls timed as wholes; a benchmark-owned thread steps the
    /// monitor and times each pass.
    Traced,
    /// The GO-path op stream replayed through the public calls the
    /// front-ends make, each timed; benchmark-owned monitor thread.
    Replay,
}

/// Correctness checks of one run. Any failure fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.failures.extend(other.failures);
    }

    /// The checks every workload shares.
    pub fn runtime_health(&mut self, rt: &Runtime, stats: &StatsSnapshot) {
        self.check(!dimmunix_core::fault_injection_compiled(), || {
            "fault injection is compiled into the measured build".into()
        });
        self.check(!rt.degraded(), || "runtime entered degraded mode".into());
        self.check(stats.monitor_restarts == 0, || {
            format!("monitor restarted {} times", stats.monitor_restarts)
        });
    }
}

/// One measured phase of a workload.
pub struct Phase {
    pub setup_s: f64,
    pub e2e: EndToEnd,
    pub stats0: StatsSnapshot,
    pub stats1: StatsSnapshot,
    /// Events published but not yet drained by the monitor at window end.
    pub backlog_end: u64,
    pub cancels: u64,
    pub monitor: Option<MonitorLog>,
    pub spans: SpanLog,
    pub immune_ms: Vec<f64>,
    pub checks: Checks,
}

/// The monitor a phase runs with: the runtime's own thread, or the
/// benchmark-owned one that times each pass.
pub enum MonitorKind {
    Spawned,
    Owned(measure::MonitorThread),
}

impl MonitorKind {
    pub fn start(rt: &Runtime, mode: Mode) -> Self {
        if mode == Mode::Plain {
            rt.spawn_monitor();
            MonitorKind::Spawned
        } else {
            MonitorKind::Owned(measure::MonitorThread::spawn(rt.clone()))
        }
    }

    pub fn stop(self, rt: &Runtime) -> Option<MonitorLog> {
        match self {
            MonitorKind::Spawned => {
                rt.shutdown();
                None
            }
            MonitorKind::Owned(d) => {
                let log = d.stop();
                rt.step_monitor();
                Some(log)
            }
        }
    }
}

/// Output of [`run_clients`].
pub struct Clients {
    pub setup_s: f64,
    pub window: Window,
    pub logs: Vec<ClientLog>,
    pub spans: Vec<SpanLog>,
    pub stats_end: StatsSnapshot,
}

/// Runs `CLIENTS` closed-loop worker threads against `rt`. Set-up ends when
/// every worker has registered with the runtime; the window starts after a
/// warm-up.
/// `coordinator` runs on the calling thread during the window and must return
/// no earlier than the window's end.
pub fn run_clients<W, D>(
    rt: &Runtime,
    setup_t0: Instant,
    secs: f64,
    worker: W,
    coordinator: D,
) -> Clients
where
    W: Fn(usize, &Window, &mut ClientLog, &mut SpanLog) + Sync,
    D: FnOnce(&Window),
{
    let registered = Barrier::new(CLIENTS + 1);
    let go = Barrier::new(CLIENTS + 1);
    let window_cell: OnceLock<Window> = OnceLock::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (registered, go, window_cell, worker) =
                    (&registered, &go, &window_cell, &worker);
                s.spawn(move || {
                    rt.current_thread()
                        .expect("worker registers with the runtime");
                    registered.wait();
                    go.wait();
                    let window = *window_cell.get().expect("window set before go");
                    let mut log = ClientLog::default();
                    let mut spans = SpanLog::new(i as u8);
                    worker(i, &window, &mut log, &mut spans);
                    (log, spans)
                })
            })
            .collect();
        registered.wait();
        let setup_s = setup_t0.elapsed().as_secs_f64();
        let warmup = measure::warmup_for(secs);
        let window = Window::new(Instant::now() + warmup, Duration::from_secs_f64(secs));
        window_cell.set(window).expect("window set once");
        go.wait();
        std::thread::sleep(warmup);
        coordinator(&window);
        let stats_end = rt.stats();
        let (logs, spans) = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .unzip();
        Clients {
            setup_s,
            window,
            logs,
            spans,
            stats_end,
        }
    })
}

/// Sleeps the coordinator thread until the window ends.
pub fn idle_until_end(window: &Window) {
    let now = Instant::now();
    if now < window.end() {
        std::thread::sleep(window.end() - now);
    }
}

impl Phase {
    /// Assembles a phase from its parts.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        rt: &Runtime,
        clients: Clients,
        stats0: StatsSnapshot,
        cancels: u64,
        monitor: Option<MonitorLog>,
        extra_spans: Vec<SpanLog>,
        immune_ms: Vec<f64>,
        mut checks: Checks,
    ) -> Phase {
        let stats1 = rt.stats();
        let mut log = ClientLog::merge(&clients.logs);
        // A yield the max-yield bound aborted is a failed op.
        log.failed += stats1.yield_aborts.saturating_sub(stats0.yield_aborts);
        let e2e = EndToEnd::of(&clients.window, &mut log);
        checks.runtime_health(rt, &stats1);
        let backlog_end = events_emitted(&clients.stats_end, cancels)
            .saturating_sub(clients.stats_end.events_processed);
        let mut all = clients.spans;
        all.extend(extra_spans);
        Phase {
            setup_s: clients.setup_s,
            e2e,
            stats0,
            stats1,
            backlog_end,
            cancels,
            monitor,
            spans: SpanLog::merge(all),
            immune_ms,
            checks,
        }
    }
}

/// A lock the replay drives through the public hooks: a lock id from the
/// runtime plus the same raw mutex the front-ends wrap.
pub struct ReplayLock {
    pub id: LockId,
    raw: parking_lot::RawMutex,
}

impl ReplayLock {
    pub fn new(rt: &Runtime) -> Self {
        Self {
            id: rt.new_lock_id(),
            raw: parking_lot::RawMutex::INIT,
        }
    }

    pub fn lock(&self) {
        self.raw.lock();
    }

    pub fn try_lock_for(&self, timeout: Duration) -> bool {
        use parking_lot::lock_api::RawMutexTimed as _;
        self.raw.try_lock_for(timeout)
    }

    /// # Safety
    ///
    /// The calling thread must hold the lock.
    pub unsafe fn unlock(&self) {
        // SAFETY: forwarded from this function's contract.
        unsafe { self.raw.unlock() };
    }
}

/// Why a replayed acquisition did not complete on the GO path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Miss {
    /// `request` decided YIELD; the request was cancelled.
    Yielded,
    /// The timed mutex acquisition expired; the request was cancelled.
    Expired,
}

/// Replays one acquisition through the public hooks, timing each call:
/// `request`, the mutex, `acquired` (and `cancel` on a miss).
pub fn replay_acquire(
    rt: &Runtime,
    spans: &mut SpanLog,
    t: ThreadId,
    lock: &ReplayLock,
    frames: &[FrameId],
    stack: StackId,
    timeout: Option<Duration>,
) -> Result<(), Miss> {
    use measure::Span;
    let core = rt.core();
    let d = spans.time(Span::Request, || core.request(t, lock.id, frames, stack));
    if let Decision::Yield { .. } = d {
        spans.time(Span::Cancel, || core.cancel(t, lock.id));
        return Err(Miss::Yielded);
    }
    let got = spans.time(Span::Mutex, || match timeout {
        Some(d) => lock.try_lock_for(d),
        None => {
            lock.lock();
            true
        }
    });
    if !got {
        spans.time(Span::Cancel, || core.cancel(t, lock.id));
        return Err(Miss::Expired);
    }
    spans.time(Span::Acquired, || core.acquired(t, lock.id, stack));
    Ok(())
}

/// Replays one release through the public hook, then unlocks. The wake
/// list is dropped: a replayed request never parks (a YIELD is cancelled),
/// so nobody waits on it. Returns how many wakes were dropped.
///
/// # Safety
///
/// The calling thread must hold `lock` via [`replay_acquire`].
pub unsafe fn replay_release(
    rt: &Runtime,
    spans: &mut SpanLog,
    t: ThreadId,
    lock: &ReplayLock,
) -> usize {
    let wakes = spans.time(measure::Span::Release, || rt.core().release(t, lock.id));
    // SAFETY: forwarded from this function's contract.
    unsafe { lock.unlock() };
    wakes.len()
}

/// Replays the thread lookup, capture and interning an `ImmunizedMutex`
/// lock call makes, timing each.
pub fn replay_stack(
    rt: &Runtime,
    spans: &mut SpanLog,
    site: &'static Location<'static>,
) -> (ThreadId, Vec<FrameId>, StackId) {
    use measure::Span;
    let t = spans
        .time(Span::CurrentThread, || rt.current_thread())
        .expect("replay thread is registered");
    let frames = spans.time(Span::Capture, || context::capture(rt.frame_table(), site));
    let stack = spans.time(Span::InternStack, || rt.core().intern_stack(&frames));
    (t, frames, stack)
}

/// Function names for generated call paths.
const NAMES: [&str; 16] = [
    "handleRequest",
    "doFilter",
    "processEvent",
    "dispatch",
    "acquireSocket",
    "doForwardReq",
    "onEvent",
    "lockReq",
    "commitTxn",
    "flushLog",
    "scanIndex",
    "pinPage",
    "routeMsg",
    "ackBatch",
    "loadConfig",
    "evictEntry",
];

/// A seeded call path of `depth` frames in `file`, outermost first.
pub fn gen_path(rng: &mut StdRng, depth: usize, file: &'static str) -> FramePath {
    (0..depth)
        .map(|lvl| {
            let line = lvl as u32 * 1000 + rng.gen_range(0..1000u32);
            (NAMES[rng.gen_range(0..NAMES.len())], file, line)
        })
        .collect()
}

/// Matching depth of every generated signature (the paper's default).
pub const SIG_DEPTH: u8 = 4;

/// Writes a history file: `decoys` synthetic `siggen` signatures over
/// seeded paths no worker uses (each ending in `lock_frame`), plus one
/// signature per stack pair in `pairs`.
pub fn write_history(
    ctx: &Ctx,
    path: &Path,
    decoys: usize,
    lock_frame: (&'static str, &'static str, u32),
    pairs: &[(FramePath, FramePath)],
) {
    let rt = Runtime::new(Config::default()).expect("scratch runtime");
    let mut rng = ctx.rng(0xDEC0);
    let pool: Vec<FramePath> = (0..64)
        .map(|_| {
            let mut p = gen_path(&mut rng, 4, "decoy.rs");
            p.push(lock_frame);
            p
        })
        .collect();
    let added = synthesize_history(&rt, &pool, decoys, 2, ctx.seed, SIG_DEPTH);
    assert_eq!(added, decoys, "siggen produced fewer decoys than asked");
    for (a, b) in pairs {
        let stacks = vec![rt.make_site(a).stack(), rt.make_site(b).stack()];
        rt.history().add(CycleKind::Deadlock, stacks, SIG_DEPTH);
    }
    let _ = std::fs::remove_file(path);
    rt.history()
        .save_to(path, rt.frame_table(), rt.stack_table())
        .expect("write the generated history file");
}

/// Median time to open `path` into fresh interners, in milliseconds.
pub fn history_open_ms(path: &Path) -> f64 {
    let v: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let (frames, stacks) = (FrameTable::new(), StackTable::new());
            let t0 = Instant::now();
            let h = History::open(path, &frames, &stacks).expect("open the history file");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(h.len());
            ms
        })
        .collect();
    Summary::of(&v).median
}

/// The `<lock>` frame that the first lock call `f` makes records, found by
/// running `f` once against a scratch runtime.
pub fn lock_frame_of(
    file: &'static str,
    f: impl FnOnce(&Runtime),
) -> (&'static str, &'static str, u32) {
    let rt = Runtime::new(Config::default()).expect("scratch runtime");
    f(&rt);
    let stack = rt.stack_table().resolve(dimmunix_core::StackId(0));
    let frame = rt
        .frame_table()
        .resolve(*stack.last().expect("a captured stack has a lock frame"));
    assert_eq!(&*frame.function, "<lock>");
    assert_eq!(&*frame.file, file, "lock call lives in the expected file");
    ("<lock>", file, frame.line)
}

/// One metric of the result.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Summary,
}

impl Metric {
    pub fn one(name: &'static str, unit: &'static str, v: f64) -> Metric {
        Metric {
            name,
            unit,
            value: Summary::of(&[v]),
        }
    }
}

/// The finished run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub samples: usize,
    pub notes: Vec<(&'static str, String)>,
    pub checks: Checks,
}

/// Runs the untraced measurement: `SETUP_REPS` timed set-ups, `episodes`
/// of which each run a window of `ctx.seconds / episodes`; reports every
/// end-to-end metric, each taken over the slices of all episodes.
pub fn untraced(run_phase: impl Fn(Mode, f64) -> Phase, ctx: &Ctx, episodes: usize) -> Outcome {
    let mut setups = Vec::new();
    let mut checks = Checks::default();
    let mut set_up = |secs: f64, timed: bool| {
        std::thread::sleep(SETUP_PAUSE);
        let mut p = run_phase(Mode::Plain, secs);
        if timed {
            setups.push(p.setup_s);
        }
        checks.absorb(std::mem::take(&mut p.checks));
        p
    };
    // The set-ups that run no window are spread evenly around the
    // episodes, so the median spans the whole run. The first set-up after
    // an episode is not timed: it pays for the heap the episode's backlog
    // left behind (tens of ms against about 2 ms), a cost of the episode
    // rather than of setting up.
    let secs = ctx.seconds / episodes as f64;
    let idle = SETUP_REPS - episodes;
    let mut parts = Vec::new();
    let mut immune_ms = Vec::new();
    for k in 0..=episodes {
        if k > 0 {
            set_up(0.0, false);
        }
        for _ in idle * k / (episodes + 1)..idle * (k + 1) / (episodes + 1) {
            set_up(0.0, true);
        }
        if k < episodes {
            let p = set_up(secs, true);
            immune_ms.extend(p.immune_ms);
            parts.push(p.e2e);
        }
    }
    let e = EndToEnd::pool(parts);
    let mut notes = vec![
        (
            "failed_frac",
            format!("{}", e.failed as f64 / e.attempted.max(1) as f64),
        ),
        ("setup_reps", SETUP_REPS.to_string()),
        ("episodes", episodes.to_string()),
        (
            "warmup_s",
            format!("{}", measure::warmup_for(secs).as_secs_f64()),
        ),
        ("peak_rss_mb", format!("{:.1}", measure::peak_rss_mb())),
    ];
    if !immune_ms.is_empty() {
        let max = immune_ms.iter().copied().fold(0.0, f64::max);
        notes.push(("vaccinated_patterns", immune_ms.len().to_string()));
        notes.push((
            "immune_ms_p50",
            format!("{:.1}", Summary::of(&immune_ms).median),
        ));
        notes.push(("immune_ms_max", format!("{max:.1}")));
    }
    Outcome {
        attempted: e.attempted,
        failed: e.failed,
        metrics: vec![
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: e.ops_per_s,
            },
            Metric {
                name: "acquire_ns_p50",
                unit: "ns",
                value: e.acquire_p50,
            },
            Metric {
                name: "acquire_ns_p99",
                unit: "ns",
                value: e.acquire_p99,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: Summary::of(&setups),
            },
        ],
        samples: e.samples,
        notes,
        checks,
    }
}

/// Median cost of one empty span: the clock read every timed span
/// includes once.
fn clock_ns() -> f64 {
    let mut v: Vec<u32> = (0..10_000)
        .map(|_| measure::ns_since(std::hint::black_box(Instant::now())))
        .collect();
    measure::p50_p99(&mut v).0
}

/// Per-layer metrics shared by every workload's traced run. `plain`,
/// `traced` and `replay` are the three phases of the traced invocation and
/// `spans` holds the spans of the last two. A timing of a layer the
/// workload never calls has no samples: it is reported as 0 and its name
/// goes into the returned list.
pub fn layer_metrics(
    plain: &Phase,
    traced: &mut Phase,
    replay: &Phase,
    spans: &mut SpanLog,
    history_file: &Path,
) -> (Vec<Metric>, Vec<&'static str>, Checks) {
    use measure::Span;
    let mut m = Vec::new();
    let mut idle = Vec::new();
    let mut checks = Checks::default();
    let s0 = traced.stats0;
    let s1 = traced.stats1;
    let d = |f: fn(&StatsSnapshot) -> u64| f(&s1).saturating_sub(f(&s0)) as f64;
    let mut timed =
        |m: &mut Vec<Metric>, name: &'static str, unit: &'static str, v: Option<f64>| {
            if v.is_none() {
                idle.push(name);
            }
            m.push(Metric::one(name, unit, v.unwrap_or(0.0)));
        };

    let mut timing = |k: Span| spans.p50_p99(k);
    // Front-end calls as wholes (traced phase).
    let sync_lock = timing(Span::SyncLock);
    let sync_unlock = timing(Span::SyncUnlock);
    let raw_lock = timing(Span::RawLock);
    let raw_unlock = timing(Span::RawUnlock);
    // Public parts (replay phase).
    let current = timing(Span::CurrentThread);
    let capture = timing(Span::Capture);
    let intern = timing(Span::InternStack);
    let request = timing(Span::Request);
    let mutex = timing(Span::Mutex);
    let acquired = timing(Span::Acquired);
    let release = timing(Span::Release);
    let history_read = timing(Span::HistoryRead);
    // The residual is taken against the front-end the workload runs on.
    // Every span includes one clock read, so n parts carry n - 1 more
    // clock reads than the one whole call.
    let clock = clock_ns();
    let (front, parts) = match (sync_lock, raw_lock) {
        (Some(f), _) => (
            Some(f),
            vec![current, capture, intern, request, mutex, acquired],
        ),
        (None, Some(f)) => (Some(f), vec![current, request, mutex, acquired]),
        (None, None) => (None, Vec::new()),
    };
    let parts_ns: Option<f64> = parts.iter().map(|p| p.map(|x| x.0)).sum();
    let residual = front
        .zip(parts_ns)
        .map(|(f, p)| f.0 - (p - (parts.len() - 1) as f64 * clock));
    let p50 = |t: Option<(f64, f64)>| t.map(|x| x.0);
    let p99 = |t: Option<(f64, f64)>| t.map(|x| x.1);

    timed(&mut m, "runtime.current_thread_ns_p50", "ns", p50(current));
    timed(&mut m, "runtime.park_residual_ns_p50", "ns", residual);
    timed(&mut m, "sync.lock_ns_p50", "ns", p50(sync_lock));
    timed(&mut m, "sync.unlock_ns_p50", "ns", p50(sync_unlock));
    timed(&mut m, "raw.lock_ns_p50", "ns", p50(raw_lock));
    timed(&mut m, "raw.unlock_ns_p50", "ns", p50(raw_unlock));
    timed(&mut m, "context.capture_ns_p50", "ns", p50(capture));
    timed(&mut m, "avoidance.intern_stack_ns_p50", "ns", p50(intern));
    timed(&mut m, "avoidance.request_ns_p50", "ns", p50(request));
    timed(&mut m, "avoidance.request_ns_p99", "ns", p99(request));
    timed(&mut m, "avoidance.acquired_ns_p50", "ns", p50(acquired));
    timed(&mut m, "avoidance.acquired_ns_p99", "ns", p99(acquired));
    timed(&mut m, "avoidance.release_ns_p50", "ns", p50(release));
    timed(&mut m, "avoidance.release_ns_p99", "ns", p99(release));
    m.push(Metric::one("trace.clock_ns", "ns", clock));

    // Counters of the traced phase.
    let requests = d(|s| s.requests).max(1.0);
    m.push(Metric::one(
        "avoidance.yield_frac",
        "frac",
        d(|s| s.yields) / requests,
    ));
    m.push(Metric::one(
        "avoidance.precheck_skip_frac",
        "frac",
        d(|s| s.precheck_skips) / requests,
    ));
    m.push(Metric::one(
        "avoidance.cover_searches",
        "count",
        d(|s| s.cover_searches),
    ));
    m.push(Metric::one(
        "avoidance.cover_retries",
        "count",
        d(|s| s.cover_retries),
    ));
    m.push(Metric::one(
        "avoidance.wake_drains",
        "count",
        d(|s| s.wake_drains),
    ));
    // The overflow counter is a gauge the monitor refreshes each pass, so
    // the share is taken over the runtime's life, after its last pass.
    let emitted = events_emitted(&s1, traced.cancels).max(1) as f64;
    m.push(Metric::one(
        "lanes.overflow_frac",
        "frac",
        s1.lane_overflows as f64 / emitted,
    ));
    m.push(Metric::one(
        "lanes.high_water",
        "count",
        s1.lane_high_water as f64,
    ));

    let mon = traced.monitor.take().unwrap_or_default();
    let mut pass = mon.pass_us.clone();
    pass.sort_by(f64::total_cmp);
    timed(
        &mut m,
        "monitor.step_us_p50",
        "us",
        (!pass.is_empty()).then(|| measure::pct(&pass, 0.5)),
    );
    timed(
        &mut m,
        "monitor.step_us_p99",
        "us",
        (!pass.is_empty()).then(|| measure::pct(&pass, 0.99)),
    );
    m.push(Metric::one(
        "monitor.busy_frac",
        "frac",
        mon.busy.as_secs_f64() / mon.wall.as_secs_f64().max(1e-9),
    ));
    m.push(Metric::one(
        "monitor.events_per_pass",
        "count",
        d(|s| s.events_processed) / d(|s| s.monitor_passes).max(1.0),
    ));
    m.push(Metric::one(
        "monitor.backlog_end",
        "count",
        traced.backlog_end as f64,
    ));
    let vaccinating = &mon.vaccinating_pass_us;
    timed(
        &mut m,
        "monitor.vaccinating_pass_us_p50",
        "us",
        (!vaccinating.is_empty()).then(|| Summary::of(vaccinating).median),
    );

    m.push(Metric::one(
        "history.open_ms",
        "ms",
        history_open_ms(history_file),
    ));
    timed(&mut m, "history.read_ns_p50", "ns", p50(history_read));
    m.push(Metric::one(
        "history.rebuilds_delta",
        "count",
        d(|s| s.rebuilds_delta),
    ));
    m.push(Metric::one(
        "history.rebuilds_full",
        "count",
        d(|s| s.rebuilds_full),
    ));
    let rebuilt = s1.rebuilds_delta + s1.rebuilds_full > 0;
    timed(
        &mut m,
        "history.rebuild_us_max",
        "us",
        rebuilt.then(|| s1.rebuild_us_delta_max.max(s1.rebuild_us_full_max) as f64),
    );

    m.push(Metric::one(
        "predict.edges",
        "count",
        s1.prediction_edges as f64,
    ));
    m.push(Metric::one(
        "predict.cycles_predicted",
        "count",
        d(|s| s.cycles_predicted),
    ));
    m.push(Metric::one(
        "predict.deferred",
        "count",
        s1.prediction_deferred as f64,
    ));
    m.push(Metric::one(
        "predict.scc_merges",
        "count",
        s1.scc_merges as f64,
    ));
    let immune = &traced.immune_ms;
    let learned = !immune.is_empty();
    timed(
        &mut m,
        "predict.immune_ms_p50",
        "ms",
        learned.then(|| Summary::of(immune).median),
    );
    timed(
        &mut m,
        "predict.immune_ms_max",
        "ms",
        learned.then(|| immune.iter().copied().fold(0.0, f64::max)),
    );

    m.push(Metric::one(
        "proc.peak_rss_mb",
        "MB",
        measure::peak_rss_mb(),
    ));
    let plain_ops = plain.e2e.ops_per_s.median;
    let traced_ops = traced.e2e.ops_per_s.median;
    m.push(Metric::one(
        "trace.overhead_frac",
        "frac",
        1.0 - traced_ops / plain_ops.max(1e-9),
    ));
    m.push(Metric::one(
        "failed_frac",
        "frac",
        traced.e2e.failed as f64 / traced.e2e.attempted.max(1) as f64,
    ));
    checks.check(traced.e2e.ops > 0 && replay.e2e.ops > 0, || {
        "a traced phase completed no ops".into()
    });
    (m, idle, checks)
}

/// Runs the traced measurement: an untraced phase (the overhead baseline),
/// a traced front-end phase and a replay phase, a third of the run each.
pub fn traced(run_phase: impl Fn(Mode, f64) -> Phase, ctx: &Ctx, history_file: &Path) -> Outcome {
    let third = ctx.seconds / 3.0;
    let mut checks = Checks::default();
    let plain = run_phase(Mode::Plain, third);
    let mut traced = run_phase(Mode::Traced, third);
    let mut replay = run_phase(Mode::Replay, third);
    let mut spans = SpanLog::merge(vec![
        std::mem::replace(&mut traced.spans, SpanLog::new(0)),
        std::mem::replace(&mut replay.spans, SpanLog::new(0)),
    ]);
    let (metrics, idle, c) = layer_metrics(&plain, &mut traced, &replay, &mut spans, history_file);
    checks.absorb(c);
    spans.records.sort_by_key(|r| r.start_ns);
    let span_file = ctx.file("spans.csv");
    if let Err(e) = spans.write_csv(&span_file) {
        checks.check(false, || format!("writing {}: {e}", span_file.display()));
    }
    let attempted = plain.e2e.attempted + traced.e2e.attempted + replay.e2e.attempted;
    let failed = plain.e2e.failed + traced.e2e.failed + replay.e2e.failed;
    let samples = spans.durs.iter().map(Vec::len).sum();
    for p in [plain, traced, replay] {
        checks.absorb(p.checks);
    }
    Outcome {
        attempted,
        failed,
        metrics,
        samples,
        notes: vec![
            (
                "warmup_s",
                format!("{}", measure::warmup_for(third).as_secs_f64()),
            ),
            ("span_file", span_file.display().to_string()),
            ("not_exercised", idle.join(",")),
        ],
        checks,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fault: Option<Fault>,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut fault = None;
    let mut work = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--fault" => {
                fault = Some(match value()?.as_str() {
                    "withhold-inversions" => Fault::WithholdInversions,
                    "withhold-prediction" => Fault::WithholdPrediction,
                    "unvaccinated-replay" => Fault::UnvaccinatedReplay,
                    other => return Err(format!("unknown fault {other}")),
                })
            }
            "--work-dir" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        fault,
        work,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("costbench: {e}");
            std::process::exit(64);
        }
    };
    let work = args.work.join(format!("{}-{}", args.workload, args.seed));
    std::fs::create_dir_all(&work).expect("create the work directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work,
        fault: args.fault,
    };
    let outcome = match args.workload.as_str() {
        "private_mutex" => private_mutex::run(&ctx, args.trace),
        "hot_inversions" => hot_inversions::run(&ctx, args.trace),
        "live_learning" => live_learning::run(&ctx, args.trace),
        other => {
            eprintln!("costbench: unknown workload {other}");
            std::process::exit(64);
        }
    };
    if !outcome.checks.failures.is_empty() {
        for f in &outcome.checks.failures {
            eprintln!("costbench: check failed: {f}");
        }
        std::process::exit(2);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"clients\": {}, \"slices\": {}, \"samples\": {}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        nproc,
        CLIENTS,
        SLICES,
        outcome.samples,
    );
    for (k, v) in &outcome.notes {
        let _ = write!(row, ", {}: {}", json_str(k), json_str(v));
    }
    row.push_str(", \"metrics\": {");
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            row,
            "{}{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"reps\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(m.name),
            json_num(m.value.median),
            json_num(m.value.q1),
            json_num(m.value.q3),
            m.value.reps,
            json_str(m.unit),
        );
    }
    row.push_str("}}");
    println!("{row}");

    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            result,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(m.name),
            json_num(m.value.median),
            json_str(m.unit),
        );
    }
    result.push_str("}}");
    println!("{result}");
}
