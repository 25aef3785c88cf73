//! `hot_inversions`: the avoidance path.
//!
//! The workers share 8 `ImmunizedMutex`es guarding balances. Each op
//! pushes a depth-10 context path from a seeded pool, takes an outer lock,
//! then an inner lock via `try_lock_for` with a generous timeout, and moves
//! an amount between the two balances. The lock order depends on the path,
//! so AB/BA inversions happen; the history (loaded from a file at set-up)
//! holds a few hundred `siggen` decoys plus one signature for every pair of
//! paths whose orders are inverse, so avoidance must yield to keep the
//! workers out of deadlock. This exercises deep capture and stack
//! interning, match-index candidates and the cover search, parked and
//! woken yields, the monitor's false-positive probes and the history load.

use crate::measure::{ns_since, Span};
use crate::*;
use dimmunix_core::context::{push_frame, FrameGuard, RawFrame};
use dimmunix_core::{ImmunizedMutex, ImmunizedMutexGuard};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::RwLock;

const LOCKS: usize = 8;
/// Lock pairs in the path pool; each pair gets one path per order.
const PAIRS: usize = 16;
const PATH_DEPTH: usize = 10;
const DECOYS: usize = 300;
const START_BALANCE: i64 = 1_000_000;
/// The inner acquisition's timeout: generous, so only a real deadlock
/// (an inversion avoidance missed) makes it expire.
const INNER_TIMEOUT: Duration = Duration::from_secs(1);

type Balance = ImmunizedMutex<i64>;
type Guard<'a> = ImmunizedMutexGuard<'a, i64>;

/// The outer lock call site. The call and the returned location share a
/// line, so the replay captures the front-end's exact stack.
fn outer_site(m: Option<&Balance>) -> (Option<Guard<'_>>, &'static Location<'static>) {
    (m.map(|m| m.lock()), Location::caller())
}

/// The inner lock call site (same-line convention as [`outer_site`]).
fn inner_site(m: Option<&Balance>) -> (Option<Option<Guard<'_>>>, &'static Location<'static>) {
    (m.map(|m| m.try_lock_for(INNER_TIMEOUT)), Location::caller())
}

/// One pool path: its frames and the (outer, inner) lock pair it takes.
struct PoolPath {
    frames: FramePath,
    outer: usize,
    inner: usize,
}

impl PoolPath {
    fn push(&self) -> Vec<FrameGuard> {
        self.frames
            .iter()
            .map(|&(function, file, line)| {
                push_frame(RawFrame {
                    function,
                    file,
                    line,
                })
            })
            .collect()
    }
}

fn gen_pool(ctx: &Ctx) -> Vec<PoolPath> {
    let mut rng = ctx.rng(0x1A7E);
    let mut pool = Vec::new();
    for _ in 0..PAIRS {
        let a = rng.gen_range(0..LOCKS);
        let b = (a + rng.gen_range(1..LOCKS)) % LOCKS;
        for (outer, inner) in [(a, b), (b, a)] {
            pool.push(PoolPath {
                frames: gen_path(&mut rng, PATH_DEPTH, "app.rs"),
                outer,
                inner,
            });
        }
    }
    pool
}

fn config(history: &Path) -> Config {
    Config {
        history_path: Some(history.to_path_buf()),
        ..Config::default()
    }
}

/// Everything a phase shares between its workers.
struct Env {
    rt: Runtime,
    locks: Vec<Balance>,
    replay: Vec<(ReplayLock, AtomicI64)>,
    /// Replay ops hold it shared; an op whose replayed request yielded
    /// takes it exclusively and goes through the front-end instead, so it
    /// waits for the other worker's op (the yield's cause) to finish
    /// without spinning and without parking on a replayed lock.
    gate: RwLock<()>,
    expired: AtomicU64,
    cancels: AtomicU64,
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let (outer_loc, inner_loc) = (outer_site(None).1, inner_site(None).1);
    let outer_frame = lock_frame_of(file!(), |rt| {
        let _ = outer_site(Some(&rt.mutex(0)));
    });
    let inner_frame = lock_frame_of(file!(), |rt| {
        let _ = inner_site(Some(&rt.mutex(0)));
    });
    assert_eq!(
        outer_frame.2,
        outer_loc.line(),
        "outer call shares its line"
    );
    assert_eq!(
        inner_frame.2,
        inner_loc.line(),
        "inner call shares its line"
    );

    let pool = gen_pool(ctx);
    let with_lock = |p: &PoolPath| {
        let mut f = p.frames.clone();
        f.push(outer_frame);
        f
    };
    let mut pairs = Vec::new();
    if ctx.fault != Some(Fault::WithholdInversions) {
        for (i, p) in pool.iter().enumerate() {
            for q in &pool[i + 1..] {
                if p.outer == q.inner && p.inner == q.outer {
                    pairs.push((with_lock(p), with_lock(q)));
                }
            }
        }
    }
    let hist = ctx.file("hot_inversions.dlk");
    write_history(ctx, &hist, DECOYS, outer_frame, &pairs);

    let run_phase = |mode, secs| phase(ctx, &pool, &hist, (outer_loc, inner_loc), mode, secs);
    let mut out = if trace {
        traced(run_phase, ctx, &hist)
    } else {
        untraced(run_phase, ctx, 1)
    };
    out.notes
        .push(("inversion_signatures", pairs.len().to_string()));
    out
}

fn phase(
    ctx: &Ctx,
    pool: &[PoolPath],
    hist: &Path,
    (outer_loc, inner_loc): (&'static Location<'static>, &'static Location<'static>),
    mode: Mode,
    secs: f64,
) -> Phase {
    let setup_t0 = Instant::now();
    let rt = Runtime::new(config(hist)).expect("runtime over the generated history");
    let env = Env {
        locks: (0..LOCKS).map(|_| rt.mutex(START_BALANCE)).collect(),
        replay: (0..LOCKS)
            .map(|_| (ReplayLock::new(&rt), AtomicI64::new(START_BALANCE)))
            .collect(),
        rt,
        gate: RwLock::new(()),
        expired: AtomicU64::new(0),
        cancels: AtomicU64::new(0),
    };
    let rt = &env.rt;
    let monitor = MonitorKind::start(rt, mode);
    let mut stats0 = None;
    let clients = run_clients(
        rt,
        setup_t0,
        secs,
        |i, window, log, spans| {
            let mut rng = ctx.rng(0x0B5 + i as u64);
            loop {
                let t0 = Instant::now();
                let Some(slice) = window.slice_of(t0) else {
                    break;
                };
                let path = &pool[rng.gen_range(0..pool.len())];
                let amount = rng.gen_range(1..100i64);
                let frames = path.push();
                log.attempted += 1;
                let done = if mode == Mode::Replay {
                    replay_op(
                        &env,
                        path,
                        amount,
                        (outer_loc, inner_loc),
                        slice,
                        log,
                        spans,
                    )
                } else {
                    front_op(&env, path, amount, mode == Mode::Traced, slice, log, spans)
                };
                drop(frames);
                if done {
                    log.ops[slice] += 1;
                } else {
                    log.failed += 1;
                }
                spans.next_op();
            }
        },
        |window| {
            stats0 = Some(rt.stats());
            idle_until_end(window);
        },
    );
    let mut checks = Checks::default();
    let stats_end = clients.stats_end;
    let mon = monitor.stop(rt);
    let total: i64 = env.locks.iter().map(|m| *m.lock()).sum::<i64>()
        + env
            .replay
            .iter()
            .map(|(_, b)| b.load(Ordering::Relaxed))
            .sum::<i64>();
    checks.check(total == 2 * LOCKS as i64 * START_BALANCE, || {
        format!(
            "hot_inversions: balances total {total}, not {}",
            2 * LOCKS as i64 * START_BALANCE
        )
    });
    let expired = env.expired.load(Ordering::Relaxed);
    let deadlocks = rt.stats().deadlocks_detected;
    checks.check(expired == 0, || {
        format!(
            "hot_inversions: {expired} inner acquisitions expired; the monitor detected \
             {deadlocks} deadlocks whose signatures were already in the history"
        )
    });
    let stats0 = stats0.expect("window started");
    if secs > 0.0 {
        checks.check(stats_end.yields > stats0.yields, || {
            "hot_inversions: no yields, so avoidance never ran".into()
        });
    }
    Phase::assemble(
        rt,
        clients,
        stats0,
        env.cancels.load(Ordering::Relaxed),
        mon,
        Vec::new(),
        Vec::new(),
        checks,
    )
}

/// One op through the front-end: outer `lock`, inner `try_lock_for`,
/// transfer. Returns whether the op completed.
fn front_op(
    env: &Env,
    path: &PoolPath,
    amount: i64,
    traced: bool,
    slice: usize,
    log: &mut ClientLog,
    spans: &mut SpanLog,
) -> bool {
    let timed = |spans: &mut SpanLog, t0: Instant| {
        if traced {
            spans.end(Span::SyncLock, t0)
        } else {
            ns_since(t0)
        }
    };
    let t0 = Instant::now();
    let mut outer = outer_site(Some(&env.locks[path.outer]))
        .0
        .expect("outer lock");
    log.acquire(slice, timed(spans, t0));
    let t1 = Instant::now();
    let inner = inner_site(Some(&env.locks[path.inner]))
        .0
        .expect("inner lock");
    log.acquire(slice, timed(spans, t1));
    let Some(mut inner) = inner else {
        env.expired.fetch_add(1, Ordering::Relaxed);
        return false;
    };
    *outer -= amount;
    *inner += amount;
    if traced {
        spans.time(Span::SyncUnlock, || drop(inner));
        spans.time(Span::SyncUnlock, || drop(outer));
    }
    true
}

/// One op replayed through the public calls. A YIELD sends the op back
/// through the front-end under the exclusive gate.
fn replay_op(
    env: &Env,
    path: &PoolPath,
    amount: i64,
    (outer_loc, inner_loc): (&'static Location<'static>, &'static Location<'static>),
    slice: usize,
    log: &mut ClientLog,
    spans: &mut SpanLog,
) -> bool {
    let rt = &env.rt;
    let shared = env.gate.read().expect("replay gate poisoned");
    let (outer, outer_bal) = &env.replay[path.outer];
    let (inner, inner_bal) = &env.replay[path.inner];
    let t0 = Instant::now();
    let (t, frames, stack) = replay_stack(rt, spans, outer_loc);
    let missed = match replay_acquire(rt, spans, t, outer, &frames, stack, None) {
        Err(miss) => Some(miss),
        Ok(()) => {
            log.acquire(slice, ns_since(t0));
            let t1 = Instant::now();
            let (t, frames, stack) = replay_stack(rt, spans, inner_loc);
            let got = replay_acquire(rt, spans, t, inner, &frames, stack, Some(INNER_TIMEOUT));
            log.acquire(slice, ns_since(t1));
            if got.is_ok() {
                outer_bal.fetch_sub(amount, Ordering::Relaxed);
                inner_bal.fetch_add(amount, Ordering::Relaxed);
                // SAFETY: both acquired above on this thread.
                unsafe {
                    replay_release(rt, spans, t, inner);
                    replay_release(rt, spans, t, outer);
                }
            } else {
                // SAFETY: acquired above on this thread.
                unsafe { replay_release(rt, spans, t, outer) };
            }
            got.err()
        }
    };
    match missed {
        None => true,
        Some(Miss::Expired) => {
            env.cancels.fetch_add(1, Ordering::Relaxed);
            env.expired.fetch_add(1, Ordering::Relaxed);
            false
        }
        Some(Miss::Yielded) => {
            env.cancels.fetch_add(1, Ordering::Relaxed);
            drop(shared);
            let _exclusive = env.gate.write().expect("replay gate poisoned");
            front_op(env, path, amount, false, slice, log, spans)
        }
    }
}
