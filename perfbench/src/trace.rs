//! Per-layer timing from outside the program.
//!
//! The wrappers here sit on the public seams of `lass::simcore` and time
//! every call that crosses them:
//!
//! * [`TimedTop`] wraps the whole [`Federation`](lass::simcore::Federation)
//!   as the engine sees it (sequential engine only) and times its
//!   callbacks as the `federation` layer;
//! * [`TimedSite`] wraps each site's scheduler (`site`);
//! * [`TimedRouter`] wraps the front-end router (`router`);
//! * [`TimedArrivals`] wraps each function's arrival process
//!   (`arrivals`);
//! * a [`PolicyCtx`] wrapper times `schedule`, `schedule_cancellable`
//!   and `cancel_scheduled` (`calendar`) and `complete` (`stats`). The
//!   federation-level wrapper installs it in sequential runs; in parallel
//!   runs, where sites run on worker threads behind their own contexts,
//!   each [`TimedSite`] installs it instead, so every call is counted once.
//!
//! Everything else is forwarded untimed, so a traced run computes exactly
//! what an untraced one does. A span's *self* time is its duration minus
//! the time of spans nested inside it on the same thread; the engine's
//! self time is whatever of the run's wall time no span covers.
//!
//! Each wrapper keeps its own counters and hands them to a shared
//! [`Sink`] when it is dropped (a crashed site's wrapper too), so the hot
//! path takes no lock.

use lass::simcore::{
    ArrivalProcess, Completion, ContainerChaos, EngineOutcome, PolicyCtx, ReqId, ResourceSnapshot,
    RouterPolicy, SchedulerPolicy, SimRng, SimTime, SiteState,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layers the wrappers time, named after the modules that implement
/// them. `Engine` is the root: time outside every span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The event pump and everything no wrapper sees.
    Engine,
    /// The federation front end: routing refresh, hedging, migration.
    Federation,
    /// The router's decision.
    Router,
    /// A site's scheduler handlers.
    Site,
    /// Event-calendar pushes and cancels.
    Calendar,
    /// Completion recording.
    Stats,
    /// Arrival-process sampling.
    Arrivals,
}

const LAYERS: usize = 7;

impl Layer {
    /// The layer's name in metric keys and span records.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Federation => "federation",
            Layer::Router => "router",
            Layer::Site => "site",
            Layer::Calendar => "calendar",
            Layer::Stats => "stats",
            Layer::Arrivals => "arrivals",
        }
    }
}

/// Calls, total time and self time of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Acc {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus nested spans, ns.
    pub self_ns: u64,
}

impl Acc {
    fn add(&mut self, other: &Acc) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// One sampled span: the request it served, its layer, the layer of the
/// span it was nested in, and its start and end on the run's clock.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Request id the span is keyed by.
    pub rid: u64,
    /// The span's layer.
    pub layer: Layer,
    /// The enclosing span's layer (`engine` at the root).
    pub parent: Layer,
    /// Start, ns since the first clock read of the process.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// One request id in this many has its spans recorded.
pub const SAMPLE_EVERY: u64 = 1024;
const NOT_SAMPLED: u64 = u64::MAX;

thread_local! {
    /// Time covered by spans that ended inside the innermost open span.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
    /// Layer of the innermost open span.
    static OPEN: Cell<Layer> = const { Cell::new(Layer::Engine) };
    /// Request id whose spans are being sampled, or `NOT_SAMPLED`.
    static SAMPLED: Cell<u64> = const { Cell::new(NOT_SAMPLED) };
}

/// Nanoseconds since the first call in this process: the clock of every
/// span and of the run phase that contains them.
pub fn clock_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` with spans keyed to `rid` if it is a sampled request id.
fn with_rid<R>(rid: ReqId, f: impl FnOnce() -> R) -> R {
    let mark = if rid.0.is_multiple_of(SAMPLE_EVERY) {
        rid.0
    } else {
        NOT_SAMPLED
    };
    let outer = SAMPLED.replace(mark);
    let r = f();
    SAMPLED.set(outer);
    r
}

/// A span recorder owned by one wrapper.
#[derive(Debug, Default)]
pub struct Probe {
    acc: Acc,
    spans: Vec<Span>,
}

impl Probe {
    /// Time `f` as one span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let outer_nested = NESTED_NS.replace(0);
        let parent = OPEN.replace(layer);
        let start = clock_ns();
        let r = f();
        let end = clock_ns();
        let dur = end - start;
        self.acc.calls += 1;
        self.acc.total_ns += dur;
        self.acc.self_ns += dur.saturating_sub(NESTED_NS.get());
        NESTED_NS.set(outer_nested + dur);
        OPEN.set(parent);
        let rid = SAMPLED.get();
        if rid != NOT_SAMPLED {
            self.spans.push(Span {
                rid,
                layer,
                parent,
                start_ns: start,
                end_ns: end,
            });
        }
        r
    }
}

/// Everything the wrappers of one run measured.
#[derive(Debug, Default)]
pub struct Totals {
    /// Per-layer accumulators, indexed by `Layer as usize`.
    pub layers: [Acc; LAYERS],
    /// Calendar pushes (`schedule` + `schedule_cancellable`).
    pub pushes: u64,
    /// Time spent in those pushes, ns.
    pub push_ns: u64,
    /// `cancel_scheduled` calls.
    pub cancels: u64,
    /// Cancels that found their event still pending.
    pub cancel_hits: u64,
    /// `complete` calls that recorded nothing (withheld or unknown).
    pub withheld: u64,
    /// Total time in each site's handlers, ns, by site index.
    pub site_busy_ns: Vec<u64>,
    /// Sampled spans.
    pub spans: Vec<Span>,
}

impl Totals {
    /// The accumulator of `layer`.
    pub fn layer(&self, layer: Layer) -> &Acc {
        &self.layers[layer as usize]
    }

    fn absorb(&mut self, layer: Layer, probe: &mut Probe) {
        self.layers[layer as usize].add(&probe.acc);
        self.spans.append(&mut probe.spans);
    }

    fn absorb_ctx(&mut self, p: &mut CtxProbes) {
        self.pushes += p.push.acc.calls;
        self.push_ns += p.push.acc.total_ns;
        self.cancels += p.cancel.acc.calls;
        self.cancel_hits += p.cancel_hits;
        self.withheld += p.withheld;
        self.absorb(Layer::Calendar, &mut p.push);
        self.absorb(Layer::Calendar, &mut p.cancel);
        self.absorb(Layer::Stats, &mut p.stats);
    }
}

/// Where wrappers hand their counters when they are dropped.
pub type Sink = Arc<Mutex<Totals>>;

fn flush(sink: &Sink, f: impl FnOnce(&mut Totals)) {
    // Runs from `Drop`: a poisoned sink means a wrapper already panicked,
    // and the run is failing anyway.
    if let Ok(mut totals) = sink.lock() {
        f(&mut totals);
    }
}

/// Probes of the calls a [`PolicyCtx`] wrapper times.
#[derive(Debug, Default)]
struct CtxProbes {
    push: Probe,
    cancel: Probe,
    cancel_hits: u64,
    stats: Probe,
    withheld: u64,
}

/// A [`PolicyCtx`] that times calendar and completion calls.
struct TimedCtx<'a, C> {
    inner: &'a mut C,
    probes: &'a mut CtxProbes,
}

impl<E, C: PolicyCtx<E>> PolicyCtx<E> for TimedCtx<'_, C> {
    fn schedule(&mut self, at: SimTime, ev: E) {
        let Self { inner, probes } = self;
        probes.push.span(Layer::Calendar, || inner.schedule(at, ev));
    }
    #[inline]
    fn end_time(&self) -> SimTime {
        self.inner.end_time()
    }
    #[inline]
    fn fn_count(&self) -> usize {
        self.inner.fn_count()
    }
    #[inline]
    fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng {
        self.inner.service_rng(fn_idx)
    }
    #[inline]
    fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)> {
        self.inner.request_info(rid)
    }
    fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion> {
        let Self { inner, probes } = self;
        let done = with_rid(rid, || {
            probes
                .stats
                .span(Layer::Stats, || inner.complete(rid, started, now))
        });
        if done.is_none() {
            probes.withheld += 1;
        }
        done
    }
    #[inline]
    fn abandon(&mut self, rid: ReqId) -> Option<u32> {
        self.inner.abandon(rid)
    }
    #[inline]
    fn lose(&mut self, rid: ReqId) -> Option<u32> {
        self.inner.lose(rid)
    }
    #[inline]
    fn rerun(&mut self, rid: ReqId) -> Option<u32> {
        self.inner.rerun(rid)
    }
    #[inline]
    fn take_window_counts(&mut self) -> Vec<u64> {
        self.inner.take_window_counts()
    }
    #[inline]
    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }
    fn schedule_cancellable(&mut self, at: SimTime, ev: E) -> Option<u64> {
        let Self { inner, probes } = self;
        probes
            .push
            .span(Layer::Calendar, || inner.schedule_cancellable(at, ev))
    }
    fn cancel_scheduled(&mut self, token: u64) -> bool {
        let Self { inner, probes } = self;
        let hit = probes
            .cancel
            .span(Layer::Calendar, || inner.cancel_scheduled(token));
        probes.cancel_hits += u64::from(hit);
        hit
    }
    #[inline]
    fn note_hedged(&mut self, fn_idx: u32) {
        self.inner.note_hedged(fn_idx);
    }
    #[inline]
    fn note_cancelled(&mut self, fn_idx: u32) {
        self.inner.note_cancelled(fn_idx);
    }
}

/// A site scheduler whose handlers are timed as the `site` layer.
pub struct TimedSite<P> {
    inner: P,
    /// Whether this wrapper also times the site's calendar and completion
    /// calls (parallel runs, which have no federation-level wrapper).
    wrap_ctx: bool,
    probes: SiteProbes,
}

struct SiteProbes {
    index: usize,
    site: Probe,
    ctx: CtxProbes,
    sink: Sink,
}

impl Drop for SiteProbes {
    fn drop(&mut self) {
        flush(&self.sink, |t| {
            if t.site_busy_ns.len() <= self.index {
                t.site_busy_ns.resize(self.index + 1, 0);
            }
            t.site_busy_ns[self.index] += self.site.acc.total_ns;
            t.absorb(Layer::Site, &mut self.site);
            t.absorb_ctx(&mut self.ctx);
        });
    }
}

impl<P> TimedSite<P> {
    /// Wrap site `index`'s scheduler. `wrap_ctx` makes this wrapper time
    /// the site's calendar and completion calls too; set it only when no
    /// [`TimedTop`] sits above the site.
    pub fn new(inner: P, index: usize, wrap_ctx: bool, sink: Sink) -> Self {
        Self {
            inner,
            wrap_ctx,
            probes: SiteProbes {
                index,
                site: Probe::default(),
                ctx: CtxProbes::default(),
                sink,
            },
        }
    }
}

/// Time one site handler, handing it either the timed or the plain
/// context.
macro_rules! site_span {
    ($self:ident, $ctx:ident, |$inner:ident, $c:ident| $call:expr) => {{
        let TimedSite {
            inner: $inner,
            wrap_ctx,
            probes,
        } = $self;
        let SiteProbes { site, ctx: cp, .. } = probes;
        site.span(Layer::Site, || {
            if *wrap_ctx {
                let $c = &mut TimedCtx {
                    inner: $ctx,
                    probes: cp,
                };
                $call
            } else {
                let $c = $ctx;
                $call
            }
        })
    }};
}

impl<P: SchedulerPolicy> SchedulerPolicy for TimedSite<P> {
    type Event = P::Event;
    type Report = P::Report;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<Self::Event>) {
        site_span!(self, ctx, |inner, c| inner.on_start(c));
    }

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<Self::Event>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        with_rid(rid, || {
            site_span!(self, ctx, |inner, c| inner.on_arrival(c, rid, fn_idx, now))
        });
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Self::Event>, ev: Self::Event, now: SimTime) {
        site_span!(self, ctx, |inner, c| inner.on_event(c, ev, now));
    }

    fn finish(self, outcome: EngineOutcome) -> Self::Report {
        let TimedSite { inner, probes, .. } = self;
        let report = inner.finish(outcome);
        drop(probes);
        report
    }
}

impl<P: ContainerChaos> ContainerChaos for TimedSite<P> {
    fn crash_containers(
        &mut self,
        ctx: &mut impl PolicyCtx<Self::Event>,
        count: u32,
        now: SimTime,
    ) -> u32 {
        site_span!(self, ctx, |inner, c| inner.crash_containers(c, count, now))
    }

    #[inline]
    fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.inner.warm_containers(fn_idx)
    }

    fn apply_desired_fleet(
        &mut self,
        ctx: &mut impl PolicyCtx<Self::Event>,
        desired: u32,
        now: SimTime,
    ) -> bool {
        site_span!(self, ctx, |inner, c| inner
            .apply_desired_fleet(c, desired, now))
    }

    #[inline]
    fn set_service_factor(&mut self, factor: f64) {
        self.inner.set_service_factor(factor);
    }

    #[inline]
    fn resource_snapshot(&self) -> ResourceSnapshot {
        self.inner.resource_snapshot()
    }
}

/// The federation as the sequential engine drives it, with its callbacks
/// timed as the `federation` layer and its context timed for calendar
/// and completion calls.
pub struct TimedTop<T> {
    inner: T,
    probes: TopProbes,
}

struct TopProbes {
    federation: Probe,
    ctx: CtxProbes,
    sink: Sink,
}

impl Drop for TopProbes {
    fn drop(&mut self) {
        flush(&self.sink, |t| {
            t.absorb(Layer::Federation, &mut self.federation);
            t.absorb_ctx(&mut self.ctx);
        });
    }
}

impl<T> TimedTop<T> {
    /// Wrap the top-level policy of a sequential run.
    pub fn new(inner: T, sink: Sink) -> Self {
        Self {
            inner,
            probes: TopProbes {
                federation: Probe::default(),
                ctx: CtxProbes::default(),
                sink,
            },
        }
    }
}

impl<T: SchedulerPolicy> SchedulerPolicy for TimedTop<T> {
    type Event = T::Event;
    type Report = T::Report;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<Self::Event>) {
        let Self { inner, probes } = self;
        let TopProbes {
            federation,
            ctx: cp,
            ..
        } = probes;
        federation.span(Layer::Federation, || {
            inner.on_start(&mut TimedCtx {
                inner: ctx,
                probes: cp,
            })
        });
    }

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<Self::Event>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        let Self { inner, probes } = self;
        let TopProbes {
            federation,
            ctx: cp,
            ..
        } = probes;
        with_rid(rid, || {
            federation.span(Layer::Federation, || {
                inner.on_arrival(
                    &mut TimedCtx {
                        inner: ctx,
                        probes: cp,
                    },
                    rid,
                    fn_idx,
                    now,
                )
            })
        });
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Self::Event>, ev: Self::Event, now: SimTime) {
        let Self { inner, probes } = self;
        let TopProbes {
            federation,
            ctx: cp,
            ..
        } = probes;
        federation.span(Layer::Federation, || {
            inner.on_event(
                &mut TimedCtx {
                    inner: ctx,
                    probes: cp,
                },
                ev,
                now,
            )
        });
    }

    fn finish(self, outcome: EngineOutcome) -> Self::Report {
        let TimedTop { inner, probes } = self;
        let report = inner.finish(outcome);
        drop(probes);
        report
    }
}

/// A probe for a single layer, flushed to the sink on drop.
struct LayerProbes {
    layer: Layer,
    probe: Probe,
    sink: Sink,
}

impl Drop for LayerProbes {
    fn drop(&mut self) {
        flush(&self.sink, |t| t.absorb(self.layer, &mut self.probe));
    }
}

/// The front-end router with each decision timed as the `router` layer.
pub struct TimedRouter {
    inner: Box<dyn RouterPolicy + Send>,
    probes: LayerProbes,
}

impl TimedRouter {
    /// Wrap a router.
    pub fn new(inner: Box<dyn RouterPolicy + Send>, sink: Sink) -> Self {
        Self {
            inner,
            probes: LayerProbes {
                layer: Layer::Router,
                probe: Probe::default(),
                sink,
            },
        }
    }
}

impl RouterPolicy for TimedRouter {
    fn route(&mut self, fn_idx: u32, now: SimTime, sites: &[SiteState]) -> usize {
        let Self { inner, probes } = self;
        probes
            .probe
            .span(Layer::Router, || inner.route(fn_idx, now, sites))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An arrival process with each sample timed as the `arrivals` layer.
pub struct TimedArrivals {
    inner: Box<dyn ArrivalProcess + Send>,
    probes: LayerProbes,
}

impl TimedArrivals {
    /// Wrap one function's arrival process.
    pub fn new(inner: Box<dyn ArrivalProcess + Send>, sink: Sink) -> Self {
        Self {
            inner,
            probes: LayerProbes {
                layer: Layer::Arrivals,
                probe: Probe::default(),
                sink,
            },
        }
    }
}

impl ArrivalProcess for TimedArrivals {
    fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let Self { inner, probes } = self;
        probes
            .probe
            .span(Layer::Arrivals, || inner.next_after(now, rng))
    }
}

/// The per-layer metrics of one traced run of `run_ns` wall time.
/// `parallel_threads` is the worker count the windowed executor reported
/// (site `i` runs on worker `i % threads`), or `None` for the sequential
/// engine.
///
/// Sequential runs split wall time into engine self time plus the self
/// time of every wrapped layer; these shares sum to 1. Parallel runs
/// split it into the main thread's observed front end (router and
/// arrivals), the busiest worker's site time, and the unattributed rest
/// (barrier waits, merges and the executor's own front end), which is
/// also reported as the engine's self time; these three shares sum to 1.
/// A layer no wrapper saw reports zero calls and zero time.
pub fn layer_metrics(
    t: &Totals,
    run_ns: u64,
    parallel_threads: Option<usize>,
) -> BTreeMap<String, f64> {
    let share = |ns: u64| ns as f64 / run_ns.max(1) as f64;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let fed = t.layer(Layer::Federation);
    let router = t.layer(Layer::Router);
    let site = t.layer(Layer::Site);
    let cal = t.layer(Layer::Calendar);
    let stats = t.layer(Layer::Stats);
    let arr = t.layer(Layer::Arrivals);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let (events, engine_ns) = match parallel_threads {
        None => {
            put("parallel.threads", 1.0);
            for k in [
                "frontend_share",
                "worker_share",
                "unattributed_share",
                "busy_ratio",
            ] {
                put(&format!("parallel.{k}"), 0.0);
            }
            // Federation callbacks and arrival samples are the only spans
            // opened directly by the event pump.
            (
                fed.calls,
                run_ns.saturating_sub(fed.total_ns + arr.total_ns),
            )
        }
        Some(threads) => {
            let threads = threads.max(1);
            let mut busy = vec![0u64; threads];
            for (i, ns) in t.site_busy_ns.iter().enumerate() {
                busy[i % threads] += ns;
            }
            let worker_ns = busy.iter().copied().max().unwrap_or(0);
            let frontend_ns = router.total_ns + arr.total_ns;
            let rest = run_ns.saturating_sub(frontend_ns + worker_ns);
            put("parallel.threads", threads as f64);
            put("parallel.frontend_share", share(frontend_ns));
            put("parallel.worker_share", share(worker_ns));
            put("parallel.unattributed_share", share(rest));
            put(
                "parallel.busy_ratio",
                busy.iter().sum::<u64>() as f64 / (threads as f64 * run_ns.max(1) as f64),
            );
            (arr.calls + site.calls, rest)
        }
    };
    put("engine.events", events as f64);
    put("engine.self_s", engine_ns as f64 / 1e9);
    put("engine.self_share", share(engine_ns));
    put("engine.ns_per_event", per(engine_ns, events));
    put("arrivals.calls", arr.calls as f64);
    put("arrivals.share", share(arr.self_ns));
    put("arrivals.ns_per_call", per(arr.total_ns, arr.calls));
    put("calendar.pushes", t.pushes as f64);
    put("calendar.share", share(cal.self_ns));
    put("calendar.ns_per_push", per(t.push_ns, t.pushes));
    put("calendar.cancels", t.cancels as f64);
    put("calendar.cancel_hit_ratio", per(t.cancel_hits, t.cancels));
    put("federation.calls", fed.calls as f64);
    put("federation.self_share", share(fed.self_ns));
    put("federation.ns_per_route", per(fed.self_ns, router.calls));
    put("router.decisions", router.calls as f64);
    put("router.share", share(router.self_ns));
    put("router.ns_per_decision", per(router.total_ns, router.calls));
    put("site.calls", site.calls as f64);
    put("site.self_share", share(site.self_ns));
    let busiest = t.site_busy_ns.iter().copied().max().unwrap_or(0);
    let mean = per(t.site_busy_ns.iter().sum(), t.site_busy_ns.len() as u64);
    put(
        "site.busy_max_over_mean",
        if mean > 0.0 {
            busiest as f64 / mean
        } else {
            0.0
        },
    );
    put("stats.completions", stats.calls as f64);
    put("stats.share", share(stats.self_ns));
    put("stats.ns_per_completion", per(stats.total_ns, stats.calls));
    put("stats.withheld_ratio", per(t.withheld, stats.calls));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = clock_ns();
        while clock_ns() - start < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans_exactly() {
        // federation ─┬─ router
        //             └─ site ─┬─ calendar
        //                      └─ stats
        let [mut fed, mut router, mut site, mut cal, mut stats] =
            std::array::from_fn(|_| Probe::default());
        fed.span(Layer::Federation, || {
            spin(20_000);
            router.span(Layer::Router, || spin(30_000));
            site.span(Layer::Site, || {
                spin(10_000);
                cal.span(Layer::Calendar, || spin(40_000));
                stats.span(Layer::Stats, || spin(25_000));
            });
        });
        assert_eq!(
            site.acc.self_ns,
            site.acc.total_ns - cal.acc.total_ns - stats.acc.total_ns
        );
        assert_eq!(
            fed.acc.self_ns,
            fed.acc.total_ns - router.acc.total_ns - site.acc.total_ns
        );
        assert_eq!(cal.acc.self_ns, cal.acc.total_ns);
        assert!(site.acc.self_ns >= 10_000 && fed.acc.self_ns >= 20_000);
        // The parts reassemble the root span.
        let parts = [&fed, &router, &site, &cal, &stats]
            .iter()
            .map(|p| p.acc.self_ns)
            .sum::<u64>();
        assert_eq!(parts, fed.acc.total_ns);
        // Spans opened at the root leave the root's nested total as
        // their own duration.
        assert_eq!(NESTED_NS.get(), fed.acc.total_ns);
        NESTED_NS.set(0);
    }

    #[test]
    fn sequential_shares_sum_to_one() {
        let mut t = Totals::default();
        let acc = |calls, total_ns, self_ns| Acc {
            calls,
            total_ns,
            self_ns,
        };
        t.layers[Layer::Federation as usize] = acc(10, 600, 100);
        t.layers[Layer::Router as usize] = acc(5, 50, 50);
        t.layers[Layer::Site as usize] = acc(8, 400, 250);
        t.layers[Layer::Calendar as usize] = acc(12, 120, 120);
        t.layers[Layer::Stats as usize] = acc(4, 80, 80);
        t.layers[Layer::Arrivals as usize] = acc(5, 150, 150);
        t.site_busy_ns = vec![300, 100];
        let m = layer_metrics(&t, 1000, None);
        let parts: f64 = [
            "engine.self_share",
            "federation.self_share",
            "router.share",
            "site.self_share",
            "calendar.share",
            "stats.share",
            "arrivals.share",
        ]
        .iter()
        .map(|k| m[*k])
        .sum();
        assert!((parts - 1.0).abs() < 1e-12, "{parts}");
        assert_eq!(m["engine.self_s"], 250e-9);
        assert_eq!(m["engine.events"], 10.0);
        assert_eq!(m["federation.ns_per_route"], 20.0);
        assert_eq!(m["site.busy_max_over_mean"], 1.5);
        let p = layer_metrics(&t, 1000, Some(2));
        let parts: f64 = ["frontend_share", "worker_share", "unattributed_share"]
            .iter()
            .map(|k| p[&format!("parallel.{k}")])
            .sum();
        assert!((parts - 1.0).abs() < 1e-12, "{parts}");
        assert_eq!(p["parallel.worker_share"], 0.3);
        assert_eq!(p["parallel.busy_ratio"], 0.2);
    }
}
