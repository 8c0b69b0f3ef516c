//! Parallel conservative-synchronization executor for federated runs.
//!
//! The sequential federated pump ([`crate::run_simulation`] over a
//! [`Federation`]) interleaves every site's events in one calendar. But
//! the federation's inter-site network latency is a textbook
//! conservative-PDES *lookahead* (Chandy–Misra–Bryant): the front-end
//! router cannot affect a site sooner than the router→site hop, and a
//! site cannot affect anything outside itself at all — completions only
//! become visible to the router as telemetry. So per-site event loops
//! can run concurrently between *lookahead barriers* with zero
//! speculation and no rollback.
//!
//! Both drivers share one front end (the crate-private `front` module):
//! the router's per-site state, the routing refresh and pick, the
//! telemetry publish / arrive / directive steps, the hedge race, the
//! front half of faults and migration, and the router's half of the
//! report. The federation is handed over in one piece. What this driver
//! owns is its transport: the front calendar (`FeEv`), the per-site
//! shards with their inboxes and outcome logs, the window loop and the
//! deterministic merge. The merge hands each terminal outcome to the
//! front end's race ledger in merge order, so a hedge race has the same
//! winner at every thread count. Each shard keeps its site's request
//! books in the same ledger as the sequential driver, `SiteTally`; the
//! [`federation`](crate::federation) module docs list the differences
//! that remain.
//!
//! # Execution model
//!
//! Simulated time is cut into windows `[T, H)` with
//! `H = min(T_eff + L, next fault, hard_end)` where `L` is the minimum
//! site latency (the global lookahead) and `T_eff` skips ahead over idle
//! gaps to the earliest pending event or queued inbox message. Each
//! window runs three strictly ordered phases:
//!
//! 1. **Front-end phase** (main thread): arrivals and due deliveries in
//!    `[T, H)` are processed from the front-end calendar. Routing
//!    decisions happen here, and each routed request is scheduled as a
//!    delivery at `t + latency`. A delivery whose destination went dark
//!    bounces into migration, also here. Because `latency ≥ L`, a
//!    delivery created in this window always lands in a later window,
//!    so the per-site inboxes only ever hold current-window messages.
//! 2. **Worker phase**: `parallel_sites` threads in total — the main
//!    thread plus `parallel_sites - 1` spawned workers — drain each
//!    site's inbox and local event queue through `[T, H)`, running the
//!    site's scheduler exactly as the sequential run would. The main
//!    thread publishes the horizon, wakes each worker once, and then
//!    claims and pumps shards itself; every thread takes shards from one
//!    epoch-tagged atomic cursor, so a worker that wakes late finds the
//!    window's shards already taken and goes back to sleep instead of
//!    stalling the window. The main thread then waits only for shards a
//!    worker claimed and has not finished (a brief spin, then it
//!    blocks). Sites are fully independent inside a window; outcomes
//!    (completions, timeouts, losses, reruns) are appended to a per-site
//!    log.
//! 3. **Merge phase** (main thread): the per-site logs are merged in
//!    deterministic `(time, site, log-index)` order and folded into the
//!    cross-site aggregate statistics and the router telemetry — the
//!    same fold order regardless of how many worker threads ran, which
//!    is what makes the report byte-identical for every
//!    `parallel_sites` value.
//!
//! Site-level faults ([`Fault`]) are window split points: the
//! federation's fault schedule is materialized up front, from the same
//! list the sequential driver schedules
//! ([`Federation::with_chaos`]), each fault instant terminates a window,
//! and the fault is applied by the main thread between windows.
//!
//! # Determinism contract
//!
//! For a fixed seed the executor is **byte-identical across every
//! `parallel_sites` value** (1, 2, 8, … — a shard is pumped by whichever
//! thread claims it, but only ever by one, and the merge order is
//! thread-independent). It is *not* in
//! general byte-identical to the sequential federation, for three
//! documented reasons:
//!
//! * service-time draws use per-site streams
//!   (`"{prefix}s{site}:service:{fn}"`) instead of the sequential run's
//!   site-shared streams — unavoidable once sites draw concurrently;
//! * router *telemetry* (per-site finished counts, warm census, μ̂ from
//!   completions) is refreshed at barriers, so load-driven routers see
//!   site state up to one lookahead window (≤ `L`) stale;
//! * cross-site events at the *exact same* timestamp merge in
//!   `(time, site)` order rather than global scheduling order — a
//!   measure-zero tie under continuous arrival/service distributions.
//!
//! Under a telemetry-free router (round-robin) and a deterministic
//! service-time policy, none of the three applies and the parallel
//! report equals the sequential report exactly — the differential
//! oracle pinned by `tests/parallel_federation.rs`.
//!
//! Zero-latency sites would degenerate the lookahead to nothing, so the
//! executor requires every site latency to be positive;
//! [`run_federation`](crate::federation::run_federation) falls back to
//! the sequential path (with a warning) otherwise.

use crate::arrivals::ArrivalProcess;
use crate::chaos::{ChaosConfig, ContainerChaos, Fault};
use crate::engine::{Completion, EngineConfig, FnStats, FunctionEntry, PolicyCtx, ReqId};
use crate::events::EventQueue;
use crate::federation::{FederatedReport, Federation, Mark, SiteRebuild, SiteTally};
use crate::front::{Cancel, Census, Front, HedgeStep, Migration, SiteWork};
use crate::metrics::SampleStats;
use crate::rng::SimRng;
use crate::telemetry::TelemetrySnapshot;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;

/// A time-stamped inter-shard message: what the front-end hands a site
/// for one window. Deliveries are the routed (or migrated) requests
/// completing their network hop; the control variants forward
/// fault-driven state flips that the sequential federation applies
/// through the site's scoped context.
enum Msg {
    /// A routed request reaches the site.
    Deliver {
        rid: u64,
        fn_idx: u32,
        arrival: SimTime,
    },
    /// The router↔site link was cut: hold responses from now on.
    PartitionStart,
    /// The link healed: release everything held back.
    PartitionEnd,
    /// A chaos burst crashes up to `count` containers.
    Burst { count: u32 },
    /// A reconciler directive (desired server count) completes its
    /// return hop and lands on the site's scheduler.
    Directive { desired: u32 },
    /// A hedge-race loser cancellation lands: release the clone's books
    /// if the site still holds it (idempotent — the clone may already
    /// have finished locally, in which case the merge phase reclassified
    /// that finish as wasted work). A released clone already in service
    /// still runs to the end; that completion is logged as wasted work.
    Cancel { rid: u64 },
}

/// One request outcome recorded by a shard, replayed by the merge phase
/// into the cross-site aggregate in deterministic order.
enum LogKind {
    Completed {
        rid: u64,
        c: Completion,
    },
    Timeout {
        rid: u64,
        fn_idx: u32,
    },
    Lost {
        rid: u64,
        fn_idx: u32,
    },
    Rerun {
        fn_idx: u32,
    },
    /// A hedge-loser clone released by a [`Msg::Cancel`] before it
    /// finished locally.
    Cancelled {
        rid: u64,
        fn_idx: u32,
    },
    /// A released clone's service ran to the end anyway.
    Wasted {
        service: f64,
    },
}

struct LogEntry {
    t: SimTime,
    kind: LogKind,
}

/// The shard-private half of one site: everything a worker thread may
/// touch during its window.
struct ShardState<E> {
    site: u32,
    /// The site scheduler's own event calendar.
    queue: EventQueue<E>,
    /// Current-window messages from the front-end, time-sorted.
    inbox: VecDeque<(SimTime, Msg)>,
    /// The site's books; a live request keeps its front-door arrival.
    /// A [`Msg::Cancel`] marks the copy it releases: the site policy is
    /// not told, so a copy already in service runs to the end, and its
    /// completion is wasted work.
    tally: SiteTally<SimTime>,
    /// Whether the router↔site link is currently cut (shard's view).
    partitioned: bool,
    /// Outcomes recorded this window, drained by the merge phase.
    log: Vec<LogEntry>,
    /// Per-site service streams, labelled
    /// `"{prefix}s{site}:service:{fn}"`, created on a function's first
    /// draw: `service_slot[fn]` indexes `service_rngs`, and is
    /// `u32::MAX` until then.
    service_slot: Vec<u32>,
    service_rngs: Vec<SimRng>,
    seed: u64,
    prefix: String,
    /// Nominal end of the run.
    end: SimTime,
    fn_count: usize,
}

/// One site: its scheduler instance plus the shard state, split so the
/// scheduler can borrow a [`PolicyCtx`] over the state.
struct Shard<P: ContainerChaos> {
    policy: P,
    st: ShardState<P::Event>,
}

/// The site-local [`PolicyCtx`]: the parallel analogue of the
/// federation's scoped `SiteCtx`, backed by shard-private state instead
/// of the shared engine.
struct LocalCtx<'a, E> {
    st: &'a mut ShardState<E>,
    /// The current event's timestamp — stamps outcome log entries so
    /// the merge phase orders them correctly (the local calendar's
    /// clock lags while inbox messages are being processed).
    now: SimTime,
    /// Shift applied to scheduled times — non-zero only while replaying
    /// a rebuilt policy's `on_start` after a crash recovery.
    offset: SimDuration,
}

impl<E> ShardState<E> {
    /// The service of `rid` that began at `started` ends at `now`: log
    /// wasted work for a released hedge clone; otherwise time the
    /// request from its arrival, book it, and log the completion for
    /// the merge phase (which feeds the front end).
    fn end_service(&mut self, rid: u64, started: SimTime, now: SimTime) -> Option<Completion> {
        if self.tally.unmark(rid) {
            let service = now.saturating_since(started).as_secs_f64();
            self.log(now, LogKind::Wasted { service });
            return None;
        }
        let (fn_idx, arrival) = self.tally.release(rid)?;
        let wait = started.saturating_since(arrival).as_secs_f64();
        let c = Completion {
            fn_idx,
            arrival,
            wait,
            service: now.saturating_since(started).as_secs_f64(),
            response: now.saturating_since(arrival).as_secs_f64(),
            violated_slo: wait > self.tally.per_fn[fn_idx as usize].slo_deadline,
        };
        self.tally.complete(&c);
        self.log(now, LogKind::Completed { rid, c });
        Some(c)
    }

    fn log(&mut self, t: SimTime, kind: LogKind) {
        self.log.push(LogEntry { t, kind });
    }
}

impl<E> PolicyCtx<E> for LocalCtx<'_, E> {
    fn schedule(&mut self, at: SimTime, ev: E) {
        self.st.queue.schedule(at + self.offset, ev);
    }

    fn end_time(&self) -> SimTime {
        self.st.end
    }

    fn fn_count(&self) -> usize {
        self.st.fn_count
    }

    fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng {
        let st = &mut *self.st;
        let slot = &mut st.service_slot[fn_idx as usize];
        if *slot == u32::MAX {
            *slot = st.service_rngs.len() as u32;
            let label = format!("{}s{}:service:{fn_idx}", st.prefix, st.site);
            st.service_rngs
                .push(SimRng::from_seed_label(st.seed, &label));
        }
        &mut st.service_rngs[*slot as usize]
    }

    fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)> {
        self.st.tally.live.get(&rid.0).copied()
    }

    fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion> {
        if self.st.partitioned {
            self.st.tally.stall(rid.0, started);
            return None;
        }
        self.st.end_service(rid.0, started, now)
    }

    // A released copy (see `SiteTally::hedge_lost`) that times out or is
    // lost only takes its mark along.
    fn abandon(&mut self, rid: ReqId) -> Option<u32> {
        if self.st.tally.unmark(rid.0) {
            return None;
        }
        let fn_idx = self.st.tally.time_out(rid.0)?;
        self.st
            .log(self.now, LogKind::Timeout { rid: rid.0, fn_idx });
        Some(fn_idx)
    }

    fn lose(&mut self, rid: ReqId) -> Option<u32> {
        if self.st.tally.unmark(rid.0) {
            return None;
        }
        let fn_idx = self.st.tally.lose(rid.0)?;
        self.st.log(self.now, LogKind::Lost { rid: rid.0, fn_idx });
        Some(fn_idx)
    }

    fn rerun(&mut self, rid: ReqId) -> Option<u32> {
        let &(fn_idx, _) = self.st.tally.live.get(&rid.0)?;
        self.st.tally.per_fn[fn_idx as usize].reruns += 1;
        self.st.log(self.now, LogKind::Rerun { fn_idx });
        Some(fn_idx)
    }

    fn take_window_counts(&mut self) -> Vec<u64> {
        self.st.tally.take_window()
    }

    fn discard(&mut self, rid: ReqId) {
        self.st.tally.unmark(rid.0);
    }

    fn outstanding(&self) -> usize {
        self.st.tally.live.len()
    }
}

/// Advance one shard through `[its current time, horizon)`: drain the
/// window's inbox merged with the local calendar in time order (inbox
/// first on ties — front-end messages were scheduled before the site's
/// own run-time events in the sequential calendar).
fn pump_shard<P: ContainerChaos>(shard: &mut Shard<P>, horizon: SimTime) {
    loop {
        let next_inbox = shard.st.inbox.front().map(|&(t, _)| t);
        let next_local = shard.st.queue.peek_time();
        let take_inbox = match (next_inbox, next_local) {
            (Some(ti), Some(tl)) => ti <= tl,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_inbox {
            let t = next_inbox.expect("checked");
            if t >= horizon {
                break;
            }
            let (_, msg) = shard.st.inbox.pop_front().expect("checked");
            let Shard { policy, st } = shard;
            let mut ctx = LocalCtx {
                st,
                now: t,
                offset: SimDuration::ZERO,
            };
            match msg {
                Msg::Deliver {
                    rid,
                    fn_idx,
                    arrival,
                } => {
                    ctx.st.tally.admit(rid, fn_idx, arrival);
                    policy.on_arrival(&mut ctx, ReqId(rid), fn_idx, t);
                }
                Msg::PartitionStart => {
                    ctx.st.partitioned = true;
                }
                Msg::PartitionEnd => {
                    ctx.st.partitioned = false;
                    // Release the responses the cut link held back; the
                    // stall lands in their response time.
                    let stalled = std::mem::take(&mut ctx.st.tally.stalled);
                    for (rid, started) in stalled {
                        ctx.st.end_service(rid, started, t);
                    }
                }
                Msg::Burst { count } => {
                    let crashed = policy.crash_containers(&mut ctx, count, t);
                    ctx.st.tally.chaos_crashes += crashed;
                }
                Msg::Directive { desired } => {
                    policy.apply_desired_fleet(&mut ctx, desired, t);
                }
                Msg::Cancel { rid } => {
                    if let Some(fn_idx) = ctx.st.tally.cancel(rid) {
                        ctx.st.tally.hedge_lost.insert(rid, Mark::Released);
                        ctx.st.log(t, LogKind::Cancelled { rid, fn_idx });
                    }
                }
            }
        } else {
            let tl = next_local.expect("checked");
            if tl >= horizon {
                break;
            }
            let (t, ev) = shard.st.queue.pop().expect("checked");
            let Shard { policy, st } = shard;
            policy.on_event(
                &mut LocalCtx {
                    st,
                    now: t,
                    offset: SimDuration::ZERO,
                },
                ev,
                t,
            );
        }
    }
}

/// Spin-loop iterations the main thread waits for a worker's claimed
/// shard before it blocks: a few microseconds, about one shard's pump.
/// Blocking stays necessary because `parallel_sites` may exceed the
/// core count, and a descheduled worker cannot finish by spinning.
const DONE_SPINS: u32 = 256;

/// The per-window handoff between the main thread and the spawned
/// workers. Every thread claims shards from one cursor; the main thread
/// is the only writer of everything else except the done count.
struct Handoff {
    /// `epoch << 32 | next unclaimed shard`. Epoch 0 is before the first
    /// window and has nothing to claim.
    cursor: AtomicU64,
    /// The current window's horizon in [`SimTime`] nanoseconds, stored
    /// before the cursor publishes the window.
    horizon: AtomicU64,
    /// Shards of the current window pumped to the horizon.
    done: AtomicUsize,
    /// The window loop is over: workers return.
    stop: AtomicBool,
    /// A worker panicked inside a shard pump; its shard will never be
    /// done.
    panicked: AtomicBool,
    n_shards: usize,
}

impl Handoff {
    fn new(n_shards: usize) -> Self {
        Self {
            cursor: AtomicU64::new(n_shards as u64),
            horizon: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            n_shards,
        }
    }

    fn epoch(&self) -> u32 {
        (self.cursor.load(Ordering::Acquire) >> 32) as u32
    }

    /// Publish window `epoch` with `horizon`: nothing claimed, nothing
    /// done. Only called once every shard of the previous window is
    /// done, so no thread holds a claim. The relaxed stores are
    /// published by the cursor's `Release` store, which every claim of
    /// this window reads (through the chain of claim CASes) with
    /// `Acquire`.
    fn open(&self, epoch: u32, horizon: SimTime) {
        self.done.store(0, Ordering::Relaxed);
        self.horizon.store(horizon.0, Ordering::Relaxed);
        self.cursor.store(u64::from(epoch) << 32, Ordering::Release);
    }

    /// Claim the next shard of window `epoch` with the window's horizon,
    /// or `None` once its shards are all claimed or the window is over.
    fn claim(&self, epoch: u32) -> Option<(usize, SimTime)> {
        let mut cur = self.cursor.load(Ordering::Acquire);
        loop {
            let i = (cur & u64::from(u32::MAX)) as usize;
            if (cur >> 32) as u32 != epoch || i >= self.n_shards {
                return None;
            }
            match self.cursor.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // The window cannot close while this claim is open, so
                // the horizon read here is this window's.
                Ok(_) => {
                    return Some((i, SimTime(self.horizon.load(Ordering::Relaxed))));
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Claim and pump shards of window `epoch` until none is left; each
    /// pumped shard counts as done. Returns whether this thread finished
    /// the window's last shard.
    fn pump<P: ContainerChaos>(&self, epoch: u32, shards: &[Mutex<Shard<P>>]) -> bool {
        let mut last = false;
        while let Some((i, horizon)) = self.claim(epoch) {
            pump_shard(&mut shards[i].lock().expect("shard lock"), horizon);
            last = self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n_shards;
        }
        last
    }

    /// Main thread: wait until every shard of the window is done, spinning
    /// briefly and then parking (a worker finishing the last shard
    /// unparks it). Returns `false` if a worker panicked instead.
    fn wait_done(&self) -> bool {
        let mut spins = 0;
        loop {
            if self.done.load(Ordering::Acquire) == self.n_shards {
                return true;
            }
            if self.panicked.load(Ordering::Acquire) {
                return false;
            }
            if spins < DONE_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// A spawned worker: sleep until a new window opens, help pump its
/// shards, repeat until the window loop stops. Wake-ups are unparks;
/// a spurious one just finds no new epoch and parks again.
fn work<P: ContainerChaos>(ctl: &Handoff, shards: &[Mutex<Shard<P>>], main: &Thread) {
    // Unwinding out of a shard pump tells the main thread, which would
    // otherwise wait forever for the shard to be done.
    struct PanicFlag<'a>(&'a Handoff, &'a Thread);
    impl Drop for PanicFlag<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.panicked.store(true, Ordering::Release);
                self.1.unpark();
            }
        }
    }
    let _flag = PanicFlag(ctl, main);
    let mut seen = 0;
    loop {
        if ctl.stop.load(Ordering::Acquire) {
            return;
        }
        let epoch = ctl.epoch();
        if epoch == seen {
            std::thread::park();
            continue;
        }
        seen = epoch;
        if ctl.pump(epoch, shards) {
            main.unpark();
        }
    }
}

/// Releases the spawned workers when the window loop ends, including
/// when the main thread unwinds out of it: the scope joins every worker
/// before it returns, so a parked one must be told to stop.
struct StopWorkers<'a> {
    ctl: &'a Handoff,
    workers: Vec<Thread>,
}

impl Drop for StopWorkers<'_> {
    fn drop(&mut self) {
        self.ctl.stop.store(true, Ordering::Release);
        for w in &self.workers {
            w.unpark();
        }
    }
}

/// Front-end calendar events: the arrival pump plus in-flight network
/// hops. Faults are *not* calendar events here — every fault instant is
/// a window barrier handled by the main thread.
enum FeEv {
    Arrival(u32),
    DeliveryDue {
        site: u32,
        rid: u64,
        fn_idx: u32,
        arrival: SimTime,
    },
    /// A site's node agent publishes its telemetry snapshot
    /// (self-re-arming; only scheduled when telemetry is enabled), built
    /// from the barrier-stale shard census.
    Publish {
        site: u32,
    },
    /// A published snapshot completes its hop to the router's view.
    SnapshotDue {
        site: u32,
        /// Boxed: several times the size of every other event.
        snap: Box<TelemetrySnapshot>,
    },
    /// A reconciler directive completes its return hop; forwarded into
    /// the site's inbox as a current-window [`Msg::Directive`].
    DirectiveDue {
        site: u32,
        desired: u32,
    },
    /// A deferred hedge trigger or retry deadline comes due (the race
    /// resolving cancels it).
    HedgeFire {
        rid: u64,
        fn_idx: u32,
    },
    /// A loser-cancellation message completes its hop to the site;
    /// forwarded as a current-window [`Msg::Cancel`] regardless of
    /// partitions (cancels are idempotent control traffic).
    CancelDue {
        site: u32,
        rid: u64,
    },
}

/// Everything the main thread owns between worker phases.
struct Frontend<P: ContainerChaos> {
    calendar: EventQueue<FeEv>,
    /// The router-facing half, shared with the sequential driver.
    front: Front,
    rebuild: Option<SiteRebuild<P>>,
    /// Per-function arrival machinery — identical streams and call
    /// sequence to the sequential engine, so the arrival timeline (and
    /// request-id assignment) matches the sequential run exactly.
    procs: Vec<(Box<dyn ArrivalProcess + Send>, SimRng)>,
    /// Cross-site aggregate statistics (the engine's own measurement in
    /// the sequential run).
    agg: Vec<FnStats>,
    arrivals_total: usize,
    timeouts_total: usize,
    lost_total: usize,
    next_rid: u64,
    end: SimTime,
    /// The merge phase's buffer, kept across windows so a window does
    /// not allocate one.
    merged: Vec<(u32, LogEntry)>,
}

/// The barrier-stale census of each shard for routing `fn_idx`. The
/// lock is uncontended — phases never overlap — and every shard is
/// parked at the window start, so the census is deterministic for every
/// thread count.
fn census<P: ContainerChaos>(
    shards: &[Mutex<Shard<P>>],
    fn_idx: u32,
) -> impl FnMut(usize) -> Census + '_ {
    move |i| {
        let shard = shards[i].lock().expect("shard lock");
        Census::of(&shard.policy, fn_idx, shard.st.fn_count)
    }
}

/// Queue a current-window message for shard `site`.
fn send<P: ContainerChaos>(shards: &[Mutex<Shard<P>>], site: usize, at: SimTime, msg: Msg) {
    let mut shard = shards[site].lock().expect("shard lock");
    shard.st.inbox.push_back((at, msg));
}

impl<P: ContainerChaos> Frontend<P> {
    fn schedule_next_arrival(&mut self, fn_idx: u32, now: SimTime) {
        let (process, rng) = &mut self.procs[fn_idx as usize];
        if let Some(t) = process.next_after(now, rng) {
            self.calendar.schedule(t, FeEv::Arrival(fn_idx));
        }
    }

    /// Schedule the delivery of `rid` (which arrived at the front door
    /// at `arrival`) at `site` after `hop`. Latencies are validated
    /// positive, so the delivery always lands in a later window.
    fn dispatch(
        &mut self,
        site: usize,
        hop: SimDuration,
        rid: u64,
        fn_idx: u32,
        arrival: SimTime,
        now: SimTime,
    ) {
        self.calendar.schedule(
            now + hop,
            FeEv::DeliveryDue {
                site: site as u32,
                rid,
                fn_idx,
                arrival,
            },
        );
    }

    /// Send hedge clones of `rid` (which arrived at the front door at
    /// `arrival`) to the sites the front end committed.
    fn send_clones(
        &mut self,
        rid: u64,
        fn_idx: u32,
        clones: Vec<usize>,
        arrival: SimTime,
        now: SimTime,
    ) {
        for c in clones {
            self.agg[fn_idx as usize].hedged += 1;
            let latency = self.front.sites[c].meta.latency;
            self.dispatch(c, latency, rid, fn_idx, arrival, now);
        }
    }

    /// Cancel what the front end asked for at `now`: the timer, and
    /// each copy of `rid` by a message travelling at its site's latency.
    fn cancel(&mut self, rid: u64, cancel: Cancel, now: SimTime) {
        if let Some(token) = cancel.timer {
            self.calendar.cancel(token);
        }
        for site in cancel.copies {
            let at = now + self.front.sites[site as usize].meta.latency;
            self.calendar.schedule(at, FeEv::CancelDue { site, rid });
        }
    }

    /// Move a request committed to site `from` onto a surviving site, or
    /// fail it when none is left. `delivered` says whether the request
    /// had already reached the site (crash orphan, shard-side accounting
    /// already released) or was still in transit (bounced delivery).
    fn migrate(
        &mut self,
        shards: &[Mutex<Shard<P>>],
        from: usize,
        rid: u64,
        fn_idx: u32,
        arrival: SimTime,
        now: SimTime,
        delivered: bool,
    ) {
        match self
            .front
            .migrate(rid, from, fn_idx, now, census(shards, fn_idx))
        {
            Migration::Dies => {
                self.agg[fn_idx as usize].cancelled += 1;
                if delivered {
                    let mut shard = shards[from].lock().expect("shard lock");
                    shard.st.tally.per_fn[fn_idx as usize].cancelled += 1;
                }
            }
            Migration::Fails(cancel) => {
                // Nowhere to go: the request is failed (engine-level lost).
                if delivered {
                    let mut shard = shards[from].lock().expect("shard lock");
                    shard.st.tally.per_fn[fn_idx as usize].lost += 1;
                }
                self.agg[fn_idx as usize].lost += 1;
                self.lost_total += 1;
                self.cancel(rid, cancel, now);
            }
            Migration::Moves(dest, hop) => {
                if delivered {
                    // The orphan lost its server; the aggregate rerun
                    // counter is the cross-site view of that.
                    self.agg[fn_idx as usize].reruns += 1;
                }
                self.dispatch(dest, hop, rid, fn_idx, arrival, now);
            }
        }
    }

    /// Apply one fault at a window barrier: the front end flips its
    /// books, then the shard does the site-side work.
    fn apply_fault(&mut self, shards: &[Mutex<Shard<P>>], fault: Fault, now: SimTime) {
        let i = fault.site() as usize;
        let Some(work) = self.front.fault(fault, now, self.end) else {
            return;
        };
        match work {
            SiteWork::Evacuate => {
                assert!(
                    self.rebuild.is_some(),
                    "site-crash faults require Federation::with_rebuild"
                );
                let orphans = {
                    let mut shard = shards[i].lock().expect("shard lock");
                    // Every pending event belongs to the dead
                    // incarnation — the shard advanced exactly to the
                    // fault instant, so the whole calendar is invalid.
                    shard.st.queue.clear();
                    shard.st.tally.evacuate()
                };
                for (rid, (fn_idx, arrival)) in orphans {
                    self.migrate(shards, i, rid, fn_idx, arrival, now, true);
                }
            }
            SiteWork::Rebuild(restarts) => {
                let rebuild = self.rebuild.as_mut().expect("checked at SiteDown");
                let mut shard = shards[i].lock().expect("shard lock");
                shard.policy = rebuild(i, restarts);
                shard.st.tally.restart();
                // Replay the fresh policy's start-up (timer setup,
                // initial provisioning) shifted to the present.
                let Shard { policy, st } = &mut *shard;
                policy.on_start(&mut LocalCtx {
                    st,
                    now,
                    offset: now.saturating_since(SimTime::ZERO),
                });
            }
            SiteWork::PartitionStart => send(shards, i, now, Msg::PartitionStart),
            SiteWork::PartitionEnd => send(shards, i, now, Msg::PartitionEnd),
            SiteWork::Slow(factor) => {
                let mut shard = shards[i].lock().expect("shard lock");
                shard.policy.set_service_factor(factor);
            }
            SiteWork::Burst(count) => send(shards, i, now, Msg::Burst { count }),
        }
    }

    /// One front-calendar event of the front-end phase.
    fn on_event(&mut self, shards: &[Mutex<Shard<P>>], now: SimTime, ev: FeEv) {
        match ev {
            FeEv::Arrival(fn_idx) => {
                let rid = self.next_rid;
                self.next_rid += 1;
                self.arrivals_total += 1;
                self.agg[fn_idx as usize].arrivals += 1;
                if !self.front.any_routable() {
                    // Every site is dark: shed at the front door.
                    self.front.unroutable += 1;
                    self.agg[fn_idx as usize].lost += 1;
                    self.lost_total += 1;
                } else {
                    let chosen = self.front.pick(fn_idx, now, census(shards, fn_idx), None);
                    self.front.commit(chosen, now);
                    let latency = self.front.sites[chosen].meta.latency;
                    self.dispatch(chosen, latency, rid, fn_idx, now, now);
                    match self.front.open_race(rid, chosen, now) {
                        Some(HedgeStep::Clone(clones)) => {
                            self.send_clones(rid, fn_idx, clones, now, now)
                        }
                        Some(HedgeStep::Arm(at)) => {
                            let fire = FeEv::HedgeFire { rid, fn_idx };
                            let token = self.calendar.schedule_cancellable(at, fire);
                            self.front.arm_race(rid, Some(token));
                        }
                        None => {}
                    }
                }
                self.schedule_next_arrival(fn_idx, now);
            }
            FeEv::DeliveryDue {
                site,
                rid,
                fn_idx,
                arrival,
            } => {
                let i = site as usize;
                if self.front.door(rid, site) {
                    self.agg[fn_idx as usize].cancelled += 1;
                } else if self.front.sites[i].routable() {
                    let msg = Msg::Deliver {
                        rid,
                        fn_idx,
                        arrival,
                    };
                    send(shards, i, now, msg);
                } else {
                    // The destination went dark while the request was in
                    // flight: bounce and migrate.
                    self.front.bounce(i);
                    self.migrate(shards, i, rid, fn_idx, arrival, now, false);
                }
            }
            FeEv::Publish { site } => {
                let shard = shards[site as usize].lock().expect("shard lock");
                let (next, snap) = self.front.publish(site as usize, now, &shard.policy);
                self.calendar.schedule(next, FeEv::Publish { site });
                if let Some((at, snap)) = snap {
                    let snap = Box::new(snap);
                    self.calendar.schedule(at, FeEv::SnapshotDue { site, snap });
                }
            }
            FeEv::SnapshotDue { site, snap } => {
                if let Some((at, desired)) = self.front.snapshot_arrive(site as usize, *snap, now) {
                    self.calendar
                        .schedule(at, FeEv::DirectiveDue { site, desired });
                }
            }
            FeEv::DirectiveDue { site, desired } => {
                if self.front.directive_lands(site as usize) {
                    send(shards, site as usize, now, Msg::Directive { desired });
                }
            }
            FeEv::HedgeFire { rid, fn_idx } => {
                let census = census(shards, fn_idx);
                if let Some(fired) = self.front.fire_race(rid, fn_idx, now, census) {
                    self.send_clones(rid, fn_idx, fired.clones, fired.arrival, now);
                    self.cancel(rid, fired.cancel, now);
                }
            }
            FeEv::CancelDue { site, rid } => send(shards, site as usize, now, Msg::Cancel { rid }),
        }
    }

    /// Merge the window's per-site outcome logs into the aggregate in
    /// deterministic `(time, site, log-index)` order and feed the
    /// per-site telemetry — thread-count-independent by construction.
    fn merge_window(&mut self, shards: &[Mutex<Shard<P>>]) {
        let mut merged = std::mem::take(&mut self.merged);
        for (i, shard) in shards.iter().enumerate() {
            let mut shard = shard.lock().expect("shard lock");
            merged.extend(shard.st.log.drain(..).map(|e| (i as u32, e)));
        }
        // Stable by time: equal instants keep (site, log-index) order.
        merged.sort_by_key(|(_, e)| e.t);
        let hedging = self.front.cfg.hedge.is_some();
        for (site, e) in merged.drain(..) {
            let s = site as usize;
            let timeout = matches!(e.kind, LogKind::Timeout { .. });
            match e.kind {
                LogKind::Completed { rid, c } => {
                    if hedging {
                        let Some(cancel) = self.front.settle(rid, site) else {
                            // A loser finished before its cancel landed:
                            // honest wasted work, not a logical completion.
                            self.front.sites[s].finished += 1;
                            self.front.sites[s].waste(c.service);
                            self.agg[c.fn_idx as usize].cancelled += 1;
                            continue;
                        };
                        self.cancel(rid, cancel, e.t);
                    }
                    self.agg[c.fn_idx as usize].record(&c);
                    self.front.record_completion(s, c.service);
                }
                LogKind::Timeout { rid, fn_idx } | LogKind::Lost { rid, fn_idx } => {
                    self.front.sites[s].finished += 1;
                    if hedging {
                        let Some(cancel) = self.front.settle(rid, site) else {
                            self.agg[fn_idx as usize].cancelled += 1;
                            continue;
                        };
                        self.cancel(rid, cancel, e.t);
                    }
                    let f = &mut self.agg[fn_idx as usize];
                    if timeout {
                        f.time_out();
                        self.timeouts_total += 1;
                    } else {
                        f.lost += 1;
                        self.lost_total += 1;
                    }
                }
                LogKind::Rerun { fn_idx } => {
                    self.agg[fn_idx as usize].reruns += 1;
                }
                LogKind::Wasted { service } => self.front.sites[s].waste(service),
                LogKind::Cancelled { rid, fn_idx } => {
                    self.front.sites[s].finished += 1;
                    self.agg[fn_idx as usize].cancelled += 1;
                    self.front.loser_settled(rid, site);
                }
            }
        }
        self.merged = merged;
    }
}

/// Run a federated simulation over per-site worker threads with
/// conservative latency-lookahead synchronization. See the module docs
/// for the execution model and determinism contract.
///
/// `federation` must be freshly built (no prior run). It runs under the
/// fault schedule of `chaos` and `chaos_seed`, which replaces any set by
/// [`Federation::with_chaos`] (pass `ChaosConfig::default()` for a
/// fault-free run). The thread count comes from `cfg.parallel_sites`
/// and includes the calling thread (clamped to the site count; `None`
/// or `Some(1)` runs the windowed executor on the calling thread alone,
/// which produces the same bytes as any other thread count). Callers
/// that pick a driver from `cfg.parallel_sites` go through
/// [`run_federation`](crate::federation::run_federation), which also
/// falls back to the sequential driver where this one cannot run.
///
/// # Panics
///
/// Panics if `chaos` is rejected by [`Federation::with_chaos`], if any
/// site latency is zero (the lookahead would be degenerate) or if the
/// duration is not positive. A panic in a site policy, on whichever
/// thread pumped the site, is passed on to the caller.
pub fn run_federation_parallel<P>(
    cfg: EngineConfig,
    functions: Vec<FunctionEntry>,
    federation: Federation<P>,
    chaos: ChaosConfig,
    chaos_seed: u64,
) -> FederatedReport<P::Report>
where
    P: ContainerChaos + Send,
    P::Event: Send,
{
    let federation = federation
        .with_chaos(chaos, chaos_seed)
        .expect("invalid ChaosConfig");
    run_windowed(cfg, functions, federation)
}

/// The windowed driver over `federation` and the fault schedule it
/// carries; see [`run_federation_parallel`].
pub(crate) fn run_windowed<P>(
    cfg: EngineConfig,
    functions: Vec<FunctionEntry>,
    federation: Federation<P>,
) -> FederatedReport<P::Report>
where
    P: ContainerChaos + Send,
    P::Event: Send,
{
    assert!(
        cfg.duration_secs > 0.0,
        "simulation needs a positive duration"
    );
    let end = SimTime::from_secs_f64(cfg.duration_secs);
    // The fault timeline in the order the sequential driver schedules
    // it; a stable sort by time turns scheduling order into firing
    // order.
    let mut faults = federation.fault_schedule(end);
    faults.sort_by_key(|&(t, _)| t);
    let Federation {
        sites,
        tallies,
        front,
        rebuild,
        ..
    } = federation;
    let n_sites = sites.len();
    let lookahead = front
        .sites
        .iter()
        .map(|s| s.meta.latency)
        .min()
        .expect("federation has at least one site");
    assert!(
        lookahead > SimDuration::ZERO,
        "parallel federated execution requires every site latency > 0 \
         (zero latency degenerates the conservative lookahead); \
         fall back to the sequential path"
    );
    let hard_end = end + SimDuration::from_secs_f64(cfg.drain_secs);
    let duration_secs = cfg.duration_secs;
    let threads = cfg.parallel_sites.unwrap_or(1).clamp(1, n_sites);

    // Each site's scheduler and statistics move into its shard.
    let shards: Vec<Mutex<Shard<P>>> = sites
        .into_iter()
        .zip(tallies)
        .enumerate()
        .map(|(i, (policy, tally))| {
            Mutex::new(Shard {
                policy,
                st: ShardState {
                    site: i as u32,
                    queue: EventQueue::new(),
                    inbox: VecDeque::new(),
                    tally: SiteTally::new(tally.per_fn, tally.samples),
                    partitioned: false,
                    log: Vec::new(),
                    service_slot: vec![u32::MAX; functions.len()],
                    service_rngs: Vec::new(),
                    seed: cfg.seed,
                    prefix: cfg.rng_label_prefix.clone(),
                    end,
                    fn_count: functions.len(),
                },
            })
        })
        .collect();

    // Aggregate statistics + arrival machinery, mirroring EngineCtx.
    let new_stats: fn() -> SampleStats = if cfg.stream_stats {
        SampleStats::streaming
    } else {
        SampleStats::new
    };
    let mut agg = Vec::with_capacity(functions.len());
    let mut procs = Vec::with_capacity(functions.len());
    for (i, f) in functions.into_iter().enumerate() {
        agg.push(FnStats::empty(f.name, f.slo_deadline, new_stats));
        procs.push((
            f.process,
            SimRng::from_seed_label(cfg.seed, &format!("{}arrival:{i}", cfg.rng_label_prefix)),
        ));
    }
    let mut fe = Frontend {
        calendar: EventQueue::new(),
        front,
        rebuild,
        procs,
        agg,
        arrivals_total: 0,
        timeouts_total: 0,
        lost_total: 0,
        next_rid: 0,
        end,
        merged: Vec::new(),
    };
    for i in 0..fe.procs.len() as u32 {
        fe.schedule_next_arrival(i, SimTime::ZERO);
    }
    if fe.front.telemetry.enabled() {
        for i in 0..n_sites {
            let at = fe.front.telemetry.next_publish(i);
            fe.calendar.schedule(at, FeEv::Publish { site: i as u32 });
        }
    }
    // Site start-up runs on the main thread before the first window.
    for shard in &shards {
        let mut shard = shard.lock().expect("shard lock");
        let Shard { policy, st } = &mut *shard;
        policy.on_start(&mut LocalCtx {
            st,
            now: SimTime::ZERO,
            offset: SimDuration::ZERO,
        });
    }

    // Window loop. The main thread is worker 0: each window it opens a
    // new epoch of the shard cursor, unparks every spawned worker once,
    // pumps shards itself, and waits only for shards a worker claimed.
    let ctl = &Handoff::new(n_sites);
    let shards_ref = &shards;
    std::thread::scope(|scope| {
        let main = std::thread::current();
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                let main = main.clone();
                scope.spawn(move || work(ctl, shards_ref, &main))
            })
            .collect();
        let stop = StopWorkers {
            ctl,
            workers: workers.iter().map(|w| w.thread().clone()).collect(),
        };

        let mut t_window = SimTime::ZERO;
        let mut fi = 0usize;
        loop {
            // Apply every fault due at the window start.
            while fi < faults.len() && faults[fi].0 <= t_window {
                let (t, fault) = faults[fi];
                fi += 1;
                fe.apply_fault(shards_ref, fault, t.max(t_window));
            }
            // Horizon: earliest pending work anywhere, advanced by the
            // lookahead, cut at the next fault and the hard end. Pending
            // work includes the inbox messages a fault just queued at the
            // window start: a window that skipped past them would let the
            // merge schedule their consequences behind the front clock.
            let mut pending = fe.calendar.peek_time();
            for shard in shards_ref {
                let mut shard = shard.lock().expect("shard lock");
                let inbox = shard.st.inbox.front().map(|&(t, _)| t);
                for t in [shard.st.queue.peek_time(), inbox].into_iter().flatten() {
                    pending = Some(pending.map_or(t, |p| p.min(t)));
                }
            }
            let next_fault = faults.get(fi).map(|&(t, _)| t);
            let earliest = match (pending, next_fault) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if earliest > hard_end {
                break;
            }
            let t_eff = t_window.max(earliest);
            let mut horizon = t_eff + lookahead;
            if let Some(ft) = next_fault {
                horizon = horizon.min(ft);
            }
            // Events at exactly the hard end still run (the sequential
            // pump only breaks strictly past it).
            horizon = horizon.min(SimTime(hard_end.0 + 1));

            // Front-end phase: arrivals and due deliveries in [T, H).
            while fe.calendar.peek_time().is_some_and(|t| t < horizon) {
                let (now, ev) = fe.calendar.pop().expect("checked");
                fe.on_event(shards_ref, now, ev);
            }

            // Worker phase.
            let epoch = ctl.epoch().wrapping_add(1);
            ctl.open(epoch, horizon);
            for w in &stop.workers {
                w.unpark();
            }
            ctl.pump(epoch, shards_ref);
            if !ctl.wait_done() {
                // A worker panicked: its join below hands the panic on.
                break;
            }

            // Merge phase.
            fe.merge_window(shards_ref);
            t_window = horizon;
        }
        drop(stop);
        for w in workers {
            if let Err(panic) = w.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let outstanding = fe
        .arrivals_total
        .saturating_sub(fe.front.completed + fe.timeouts_total + fe.lost_total);
    fe.front.audit_races(outstanding, |rid, site| {
        let shard = shards[site as usize].lock().expect("shard lock");
        shard.st.tally.live.contains_key(&rid)
    });
    let parts = shards.into_iter().map(|shard| {
        let shard = shard.into_inner().expect("shard lock");
        let utilization = shard.policy.resource_snapshot().utilization();
        let (crashes, site_outcome) = shard.st.tally.close(duration_secs);
        (crashes, utilization, shard.policy.finish(site_outcome))
    });
    fe.front
        .finish(parts, fe.agg, outstanding, duration_secs, threads)
}
