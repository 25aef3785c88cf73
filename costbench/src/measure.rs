//! Timing primitives shared by the workloads: the measured window and its
//! slices, per-client latency logs, percentiles, the span log of the traced
//! run, and the benchmark-owned monitor thread.

use dimmunix_core::{Runtime, StatsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Equal slices a measured window is cut into. Every end-to-end metric is
/// the median of its per-slice values, which keeps one preempted slice
/// from moving a run's figure.
pub const SLICES: usize = 20;

/// The slot ops land in before the window starts. Warm-up ops run the
/// same loop but feed no metric: the monitor's start-up transient varies
/// strongly from run to run.
pub const WARMUP_SLOT: usize = SLICES;

/// Longest warm-up before a measured window.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Warm-up before a measured window of `secs` seconds: a sixth of the
/// window, at most [`WARMUP`]; none for a set-up that runs no window.
pub fn warmup_for(secs: f64) -> Duration {
    WARMUP.min(Duration::from_secs_f64(secs.max(0.0) / 6.0))
}

/// Nanoseconds elapsed since `t0`, saturated into a `u32` sample.
pub fn ns_since(t0: Instant) -> u32 {
    u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// The measured window of one phase.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub start: Instant,
    pub len: Duration,
}

impl Window {
    pub fn new(start: Instant, len: Duration) -> Self {
        Self { start, len }
    }

    /// The slice `t` falls in ([`WARMUP_SLOT`] before the window starts),
    /// or `None` once the window has ended.
    pub fn slice_of(&self, t: Instant) -> Option<usize> {
        if t < self.start {
            return Some(WARMUP_SLOT);
        }
        let e = t - self.start;
        if e >= self.len {
            return None;
        }
        let idx = e.as_nanos() * SLICES as u128 / self.len.as_nanos().max(1);
        Some(idx as usize)
    }

    pub fn end(&self) -> Instant {
        self.start + self.len
    }

    pub fn slice_secs(&self) -> f64 {
        self.len.as_secs_f64() / SLICES as f64
    }
}

/// One client's record of a window: completed ops and the time spent
/// inside each lock call, per slice (plus the warm-up slot); attempted and
/// failed ops overall, warm-up included.
#[derive(Debug)]
pub struct ClientLog {
    pub ops: [u64; SLICES + 1],
    pub acquire_ns: [Vec<u32>; SLICES],
    pub attempted: u64,
    pub failed: u64,
}

impl Default for ClientLog {
    fn default() -> Self {
        Self {
            ops: [0; SLICES + 1],
            acquire_ns: std::array::from_fn(|_| Vec::new()),
            attempted: 0,
            failed: 0,
        }
    }
}

impl ClientLog {
    pub fn acquire(&mut self, slice: usize, ns: u32) {
        if slice < SLICES {
            self.acquire_ns[slice].push(ns);
        }
    }

    pub fn merge(logs: &[ClientLog]) -> ClientLog {
        let mut out = ClientLog::default();
        for l in logs {
            for s in 0..=SLICES {
                out.ops[s] += l.ops[s];
            }
            for s in 0..SLICES {
                out.acquire_ns[s].extend_from_slice(&l.acquire_ns[s]);
            }
            out.attempted += l.attempted;
            out.failed += l.failed;
        }
        out
    }

    /// Ops completed inside the window.
    pub fn total_ops(&self) -> u64 {
        self.ops[..SLICES].iter().sum()
    }

    pub fn samples(&self) -> usize {
        self.acquire_ns.iter().map(Vec::len).sum()
    }
}

/// A metric summarized over repetitions: median and quartiles.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub reps: usize,
}

impl Summary {
    /// Median and quartiles as Python's `statistics.quantiles(n=4)`
    /// (exclusive method) gives them; a single value is its own spread.
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary::default();
        }
        if n == 1 {
            return Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                reps: 1,
            };
        }
        let q = |i: usize| {
            // Exclusive-method position: (n + 1) * i / 4, 1-based.
            let m = (n + 1) as f64 * i as f64 / 4.0;
            let j = (m.floor() as usize).clamp(1, n - 1);
            let delta = m - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Summary {
            median: q(2),
            q1: q(1),
            q3: q(3),
            reps: n,
        }
    }
}

/// The `q`-quantile (0..=1) of `sorted`, by nearest rank; 0 when empty.
pub fn pct<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].into()
}

/// p50 and p99 of unsorted samples.
pub fn p50_p99(samples: &mut [u32]) -> (f64, f64) {
    samples.sort_unstable();
    (pct(samples, 0.50), pct(samples, 0.99))
}

/// End-to-end figures of one phase, each the median over its slices.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    pub ops_per_s: Summary,
    pub acquire_p50: Summary,
    pub acquire_p99: Summary,
    /// The per-slice values the three summaries are taken over.
    pub slices: [Vec<f64>; 3],
    pub samples: usize,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    pub fn of(window: &Window, merged: &mut ClientLog) -> EndToEnd {
        let mut slices: [Vec<f64>; 3] = Default::default();
        for s in 0..SLICES {
            slices[0].push(merged.ops[s] as f64 / window.slice_secs());
            if !merged.acquire_ns[s].is_empty() {
                let (a, b) = p50_p99(&mut merged.acquire_ns[s]);
                slices[1].push(a);
                slices[2].push(b);
            }
        }
        EndToEnd {
            samples: merged.samples(),
            ops: merged.total_ops(),
            attempted: merged.attempted,
            failed: merged.failed,
            ..EndToEnd::default()
        }
        .with_slices(slices)
    }

    /// The figures of several windows taken together: every summary is
    /// taken over the slices of all of them.
    pub fn pool(parts: impl IntoIterator<Item = EndToEnd>) -> EndToEnd {
        let mut out = EndToEnd::default();
        let mut slices: [Vec<f64>; 3] = Default::default();
        for p in parts {
            for (all, mine) in slices.iter_mut().zip(p.slices) {
                all.extend(mine);
            }
            out.samples += p.samples;
            out.ops += p.ops;
            out.attempted += p.attempted;
            out.failed += p.failed;
        }
        out.with_slices(slices)
    }

    fn with_slices(self, slices: [Vec<f64>; 3]) -> EndToEnd {
        EndToEnd {
            ops_per_s: Summary::of(&slices[0]),
            acquire_p50: Summary::of(&slices[1]),
            acquire_p99: Summary::of(&slices[2]),
            slices,
            ..self
        }
    }
}

/// Layer calls timed by the traced run. The discriminant indexes
/// [`SpanLog`]'s sample vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `Runtime::current_thread`.
    CurrentThread,
    /// `context::capture`.
    Capture,
    /// `AvoidanceCore::intern_stack`.
    InternStack,
    /// `AvoidanceCore::request`.
    Request,
    /// The replay lock's own mutex (stands for the front-end's raw mutex).
    Mutex,
    /// `AvoidanceCore::acquired`.
    Acquired,
    /// `AvoidanceCore::release`.
    Release,
    /// `AvoidanceCore::cancel`.
    Cancel,
    /// `ImmunizedMutex::lock` / `try_lock_for`, as a whole.
    SyncLock,
    /// `ImmunizedMutexGuard` drop, as a whole.
    SyncUnlock,
    /// `RawLock::lock` / `lock_timeout`, as a whole.
    RawLock,
    /// `RawLock::unlock`, as a whole.
    RawUnlock,
    /// `History::find_by_stacks` (the learning coordinator's immunity poll).
    HistoryRead,
}

pub const SPAN_KINDS: usize = 13;

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::CurrentThread => "runtime.current_thread",
            Span::Capture => "context.capture",
            Span::InternStack => "avoidance.intern_stack",
            Span::Request => "avoidance.request",
            Span::Mutex => "replay.mutex",
            Span::Acquired => "avoidance.acquired",
            Span::Release => "avoidance.release",
            Span::Cancel => "avoidance.cancel",
            Span::SyncLock => "sync.lock",
            Span::SyncUnlock => "sync.unlock",
            Span::RawLock => "raw.lock",
            Span::RawUnlock => "raw.unlock",
            Span::HistoryRead => "history.read",
        }
    }
}

/// Full span records kept per client for the trace file; durations beyond
/// this many spans still feed the percentiles.
const RECORDS_PER_LOG: usize = 50_000;

/// One op in this many keeps its span durations for the percentiles.
const SPAN_SAMPLE: u64 = 8;

/// One recorded span: which op it belongs to (the op is the parent of
/// every layer call it makes), which call, and when.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub client: u8,
    pub op: u64,
    pub kind: Span,
    pub start_ns: u64,
    pub dur_ns: u32,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A client's spans, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    client: u8,
    pub op: u64,
    pub durs: [Vec<u32>; SPAN_KINDS],
    pub records: Vec<SpanRecord>,
}

impl SpanLog {
    pub fn new(client: u8) -> Self {
        epoch();
        Self {
            client,
            op: 0,
            durs: std::array::from_fn(|_| Vec::new()),
            records: Vec::new(),
        }
    }

    /// Starts a new op: later spans name it as their parent.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Records a span that started at `t0` and ends now; returns its
    /// duration in nanoseconds. Durations are kept for every
    /// [`SPAN_SAMPLE`]-th op only, which bounds the trace's memory.
    pub fn end(&mut self, kind: Span, t0: Instant) -> u32 {
        let dur = ns_since(t0);
        if self.op.is_multiple_of(SPAN_SAMPLE) {
            self.durs[kind as usize].push(dur);
        }
        if self.records.len() < RECORDS_PER_LOG {
            self.records.push(SpanRecord {
                client: self.client,
                op: self.op,
                kind,
                start_ns: u64::try_from(t0.saturating_duration_since(epoch()).as_nanos())
                    .unwrap_or(u64::MAX),
                dur_ns: dur,
            });
        }
        dur
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, kind: Span, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.end(kind, t0);
        r
    }

    pub fn merge(logs: Vec<SpanLog>) -> SpanLog {
        let mut out = SpanLog::new(u8::MAX);
        for l in logs {
            for k in 0..SPAN_KINDS {
                out.durs[k].extend_from_slice(&l.durs[k]);
            }
            out.records.extend(l.records);
        }
        out
    }

    /// p50 and p99 of one span kind, `None` when it never ran.
    pub fn p50_p99(&mut self, kind: Span) -> Option<(f64, f64)> {
        let v = &mut self.durs[kind as usize];
        if v.is_empty() {
            None
        } else {
            Some(p50_p99(v))
        }
    }

    /// Writes the span records as CSV (`client,op,span,start_ns,dur_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "client,op,span,start_ns,dur_ns")?;
        for r in &self.records {
            writeln!(
                w,
                "{},{},{},{},{}",
                r.client,
                r.op,
                r.kind.name(),
                r.start_ns,
                r.dur_ns
            )?;
        }
        w.flush()
    }
}

/// What the benchmark-owned monitor thread saw.
#[derive(Debug, Default)]
pub struct MonitorLog {
    /// Duration of every `Runtime::step_monitor` pass, microseconds.
    pub pass_us: Vec<f64>,
    /// Durations of the passes that grew the history, microseconds: the
    /// whole pass (drain, RAG replay, predictor, `History` add, rebuild,
    /// save), not the history calls alone.
    pub vaccinating_pass_us: Vec<f64>,
    pub busy: Duration,
    pub wall: Duration,
}

/// The traced run's monitor: a benchmark-owned thread calling
/// `Runtime::step_monitor` every τ in place of `Runtime::spawn_monitor`,
/// timing each pass.
pub struct MonitorThread {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<MonitorLog>,
}

impl MonitorThread {
    pub fn spawn(rt: Runtime) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let period = rt.config().monitor_period;
        let handle = std::thread::Builder::new()
            .name("bench-monitor".into())
            .spawn(move || {
                let mut log = MonitorLog::default();
                let start = Instant::now();
                while !flag.load(Ordering::SeqCst) {
                    let before = rt.history().len();
                    let t0 = Instant::now();
                    rt.step_monitor();
                    let d = t0.elapsed();
                    log.busy += d;
                    let us = d.as_secs_f64() * 1e6;
                    log.pass_us.push(us);
                    if rt.history().len() > before {
                        log.vaccinating_pass_us.push(us);
                    }
                    std::thread::park_timeout(period);
                }
                log.wall = start.elapsed();
                log
            })
            .expect("spawn the benchmark monitor thread");
        Self { stop, handle }
    }

    pub fn stop(self) -> MonitorLog {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.thread().unpark();
        self.handle
            .join()
            .expect("benchmark monitor thread panicked")
    }
}

/// Events the hooks have published so far (each hook pushes one event per
/// counted call), plus the cancels the caller counted itself.
pub fn events_emitted(s: &StatsSnapshot, cancels: u64) -> u64 {
    s.requests + s.gos + s.yields + s.acquisitions + s.releases + cancels
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
