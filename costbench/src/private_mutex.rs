//! `private_mutex`: the cost every user pays.
//!
//! Each worker locks its own `ImmunizedMutex` from one call site, with no
//! context frames and no think time. The history holds 64 synthetic
//! signatures over paths the workers never use, so the work is the thread
//! lookup, the park-epoch read, the GO precheck, the lane pushes (and
//! overflow spill) and the monitor's drain and RAG replay; capture,
//! matching, parking and rebuilds stay idle. The same loop over
//! `std::sync::Mutex` is reported beside it as a host reference.

use crate::measure::{ns_since, Span};
use crate::*;
use dimmunix_core::{ImmunizedMutex, ImmunizedMutexGuard};
use dimmunix_lockfree::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

type Counter = ImmunizedMutex<u64>;

/// Fresh runtimes the untraced run is cut into, each with its own worker
/// threads and a tenth of the window. The monitor never catches up with
/// this workload, so one long window keeps one runtime's growing backlog
/// and one placement of its threads for the whole run; ten short ones
/// sample ten of each, and their pooled slices vary far less from run to
/// run.
const EPISODES: usize = 10;

/// The workers' one lock call site. The call and the returned location
/// share a line, so the replay captures the front-end's exact stack.
fn lock_site(
    m: Option<&Counter>,
) -> (
    Option<ImmunizedMutexGuard<'_, u64>>,
    &'static Location<'static>,
) {
    (m.map(|m| m.lock()), Location::caller())
}

fn config(history: &Path) -> Config {
    Config {
        history_path: Some(history.to_path_buf()),
        ..Config::default()
    }
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let site = lock_site(None).1;
    let frame = lock_frame_of(file!(), |rt| {
        let _ = lock_site(Some(&rt.mutex(0)));
    });
    assert_eq!(
        frame.2,
        site.line(),
        "lock call and its location share a line"
    );
    let hist = ctx.file("private_mutex.dlk");
    write_history(ctx, &hist, 64, frame, &[]);
    let run_phase = |mode, secs| phase(&hist, site, mode, secs);
    if trace {
        traced(run_phase, ctx, &hist)
    } else {
        let mut out = untraced(run_phase, ctx, EPISODES);
        let (ns_p50, ops) = std_mutex_reference((ctx.seconds / 10.0).min(1.0));
        out.notes
            .push(("host_ref_std_mutex_ns_p50", format!("{ns_p50}")));
        out.notes
            .push(("host_ref_std_mutex_ops_per_s", format!("{ops:.0}")));
        out
    }
}

fn phase(hist: &Path, site: &'static Location<'static>, mode: Mode, secs: f64) -> Phase {
    let setup_t0 = Instant::now();
    let rt = Runtime::new(config(hist)).expect("runtime over the generated history");
    // Each worker's lock on cache lines of its own: a user's private
    // mutexes need not sit side by side, and false sharing between them
    // would time the benchmark's memory layout, not the program.
    let locks: Vec<CachePadded<Counter>> = (0..CLIENTS)
        .map(|_| CachePadded::new(rt.mutex(0)))
        .collect();
    let replay: Vec<CachePadded<(ReplayLock, AtomicU64)>> = (0..CLIENTS)
        .map(|_| CachePadded::new((ReplayLock::new(&rt), AtomicU64::new(0))))
        .collect();
    let monitor = MonitorKind::start(&rt, mode);
    let mut stats0 = None;
    let cancels = AtomicU64::new(0);
    let clients = run_clients(
        &rt,
        setup_t0,
        secs,
        |i, window, log, spans| match mode {
            Mode::Plain | Mode::Traced => {
                let traced = mode == Mode::Traced;
                loop {
                    let t0 = Instant::now();
                    let Some(slice) = window.slice_of(t0) else {
                        break;
                    };
                    let mut g = lock_site(Some(&*locks[i])).0.expect("lock");
                    let ns = if traced {
                        spans.end(Span::SyncLock, t0)
                    } else {
                        ns_since(t0)
                    };
                    *g += 1;
                    if traced {
                        spans.time(Span::SyncUnlock, || drop(g));
                        spans.next_op();
                    } else {
                        drop(g);
                    }
                    log.acquire(slice, ns);
                    log.ops[slice] += 1;
                    log.attempted += 1;
                }
            }
            Mode::Replay => {
                let (lock, counter) = &*replay[i];
                while let Some(slice) = window.slice_of(Instant::now()) {
                    spans.next_op();
                    let t0 = Instant::now();
                    let (t, frames, stack) = replay_stack(&rt, spans, site);
                    match replay_acquire(&rt, spans, t, lock, &frames, stack, None) {
                        Ok(()) => {
                            log.acquire(slice, ns_since(t0));
                            counter.fetch_add(1, Ordering::Relaxed);
                            // SAFETY: acquired just above on this thread.
                            unsafe { replay_release(&rt, spans, t, lock) };
                            log.ops[slice] += 1;
                        }
                        Err(_) => {
                            // Nothing in this history matches the workers'
                            // stack: a miss is a failed op.
                            cancels.fetch_add(1, Ordering::Relaxed);
                            log.failed += 1;
                        }
                    }
                    log.attempted += 1;
                }
            }
        },
        |window| {
            stats0 = Some(rt.stats());
            idle_until_end(window);
        },
    );
    let mut checks = Checks::default();
    for i in 0..CLIENTS {
        let ops = clients.logs[i].ops.iter().sum::<u64>();
        let counted = match mode {
            Mode::Replay => replay[i].1.load(Ordering::Relaxed),
            _ => *locks[i].lock(),
        };
        checks.check(counted == ops, || {
            format!("private_mutex: mutex {i} counts {counted} but its worker completed {ops} ops")
        });
    }
    let mon = monitor.stop(&rt);
    let stats0 = stats0.expect("window started");
    Phase::assemble(
        &rt,
        clients,
        stats0,
        cancels.load(Ordering::Relaxed),
        mon,
        Vec::new(),
        Vec::new(),
        checks,
    )
}

/// The same closed loop over `std::sync::Mutex` (host reference, not a
/// metric): p50 ns per lock call and ops/s over both workers.
fn std_mutex_reference(secs: f64) -> (f64, f64) {
    let locks: Vec<CachePadded<std::sync::Mutex<u64>>> = (0..CLIENTS)
        .map(|_| CachePadded::new(std::sync::Mutex::new(0)))
        .collect();
    let window = Window::new(Instant::now(), Duration::from_secs_f64(secs));
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let hs: Vec<_> = locks
            .iter()
            .map(|m| {
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    loop {
                        let t0 = Instant::now();
                        let Some(slice) = window.slice_of(t0) else {
                            break;
                        };
                        let mut g = m.lock().expect("reference mutex poisoned");
                        log.acquire(slice, ns_since(t0));
                        *g += 1;
                        drop(g);
                        log.ops[slice] += 1;
                    }
                    log
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("reference worker"))
            .collect()
    });
    let mut merged = ClientLog::merge(&logs);
    let e = EndToEnd::of(&window, &mut merged);
    (e.acquire_p50.median, e.ops_per_s.median)
}
