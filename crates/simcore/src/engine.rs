//! The generic discrete-event simulation engine.
//!
//! Every simulator in this workspace — the LaSS controller simulation,
//! the vanilla-OpenWhisk baseline, the static round-robin strawman — is
//! one event loop with the same skeleton: per-function Poisson arrival
//! processes feed a time-ordered event calendar; requests wait, get
//! served, and complete; per-function latency statistics accumulate. The
//! engine owns that skeleton once:
//!
//! * the event pump (arrival events interleaved with policy events, a
//!   hard drain deadline past the nominal end);
//! * the request table (ids, arrival instants, outstanding count);
//! * deterministic seeding: one labelled [`SimRng`] stream per function
//!   for arrivals and one for service times, derived from a master seed;
//! * per-function measurement ([`FnStats`]): waiting / service /
//!   response [`SampleStats`], SLO-violation, timeout, loss and rerun
//!   counters, plus a windowed arrival counter for rate monitors.
//!
//! What *scheduling* means — which container serves a request, when to
//! scale, when a node melts down — is delegated to a
//! [`SchedulerPolicy`]. A policy is notified of arrivals and of its own
//! scheduled events, and drives the request lifecycle through
//! [`EngineCtx`] (`complete`, `abandon`, `lose`, `rerun`). Adding a new
//! scheduler to the workspace means implementing this trait — roughly a
//! hundred lines — instead of forking another event loop.

use crate::arrivals::ArrivalProcess;
use crate::events::EventQueue;
use crate::metrics::SampleStats;
use crate::reqtable::RequestTable;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// A request identifier, unique within one engine run (assigned in
/// arrival order, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

/// One function registered with the engine.
pub struct FunctionEntry {
    /// Display name (carried into [`FnStats`]).
    pub name: String,
    /// SLO deadline (seconds) on the waiting time.
    pub slo_deadline: f64,
    /// The arrival process driving this function.
    pub process: Box<dyn ArrivalProcess + Send>,
}

/// Engine-level run parameters.
pub struct EngineConfig {
    /// Master RNG seed; per-function streams are derived from it.
    pub seed: u64,
    /// Prefix for the derived RNG stream labels (`"{prefix}arrival:{i}"`
    /// / `"{prefix}service:{i}"`). Lets two simulators of the same
    /// scenario draw from decorrelated streams.
    pub rng_label_prefix: String,
    /// Nominal duration (seconds). Recurring policy timers should stop
    /// rescheduling at this horizon.
    pub duration_secs: f64,
    /// Grace period after the nominal end during which in-flight events
    /// still run (lets the system drain).
    pub drain_secs: f64,
    /// Collect per-function statistics in streaming (latency-sketch,
    /// O(1)-memory) form instead of retaining every sample. Off for the
    /// figure-repro simulations (their goldens hash exact sample
    /// vectors); on for trace replay at 10⁴–10⁶ functions.
    pub stream_stats: bool,
    /// Threads for the parallel federated executor
    /// ([`crate::parallel::run_federation_parallel`]), counting the
    /// calling thread: `Some(1)` runs the windowed executor on the
    /// calling thread alone, `Some(n)` spawns `n - 1` workers. `None`
    /// (the default) keeps the sequential event pump; [`run_simulation`]
    /// itself ignores the knob — federated launchers dispatch on it.
    /// The parallel executor is deterministic in this value's presence
    /// but not its magnitude: any `Some(n)` produces byte-identical
    /// reports.
    pub parallel_sites: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            rng_label_prefix: String::new(),
            duration_secs: 60.0,
            drain_secs: 30.0,
            stream_stats: false,
            parallel_sites: None,
        }
    }
}

/// Per-function statistics collected by the engine.
///
/// `hedged` / `cancelled` count request *clones*: a hedged dispatch
/// duplicates an in-flight request without creating a new engine
/// arrival, and a cancelled clone retires without touching the
/// completion/loss/timeout tallies. The conservation identity therefore
/// stays `arrivals = completed + lost + timeouts + outstanding` with
/// clones accounted for separately. Serialization emits the two keys
/// only when nonzero so reports from hedging-free runs are
/// byte-identical to the pre-hedging format.
#[derive(Debug)]
pub struct FnStats {
    /// Function display name.
    pub name: String,
    /// SLO deadline (seconds) used for violation accounting.
    pub slo_deadline: f64,
    /// Total arrivals.
    pub arrivals: usize,
    /// Completed requests.
    pub completed: usize,
    /// Requests re-dispatched after losing their server.
    pub reruns: usize,
    /// Requests abandoned after exceeding a hard time limit.
    pub timeouts: usize,
    /// Requests dropped without service (no capacity anywhere).
    pub lost: usize,
    /// Requests whose waiting time exceeded the SLO deadline (includes
    /// timeouts).
    pub slo_violations: usize,
    /// Hedge clones dispatched for this function's requests.
    pub hedged: usize,
    /// Hedge clones cancelled after a sibling won the race.
    pub cancelled: usize,
    /// Waiting times (arrival → service start), seconds.
    pub wait: SampleStats,
    /// Response times (arrival → completion), seconds.
    pub response: SampleStats,
    /// Service times (start → completion), seconds.
    pub service: SampleStats,
}

impl FnStats {
    /// Empty statistics for one function, recording samples into stores
    /// made by `stats`.
    pub(crate) fn empty(name: String, slo_deadline: f64, stats: fn() -> SampleStats) -> Self {
        Self {
            name,
            slo_deadline,
            arrivals: 0,
            completed: 0,
            reruns: 0,
            timeouts: 0,
            lost: 0,
            slo_violations: 0,
            hedged: 0,
            cancelled: 0,
            wait: stats(),
            response: stats(),
            service: stats(),
        }
    }

    /// Fold one completion into the statistics.
    pub(crate) fn record(&mut self, c: &Completion) {
        self.count(c);
        self.wait.record(c.wait);
        self.service.record(c.service);
        self.response.record(c.response);
    }

    /// Count one completion, and its SLO violation, without recording
    /// its samples.
    pub(crate) fn count(&mut self, c: &Completion) {
        self.completed += 1;
        if c.violated_slo {
            self.slo_violations += 1;
        }
    }

    /// Count a request abandoned past its hard time limit: a timeout,
    /// and an SLO violation.
    pub(crate) fn time_out(&mut self) {
        self.timeouts += 1;
        self.slo_violations += 1;
    }
}

impl Serialize for FnStats {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("name".to_string(), self.name.serialize());
        m.insert("slo_deadline".to_string(), self.slo_deadline.serialize());
        m.insert("arrivals".to_string(), self.arrivals.serialize());
        m.insert("completed".to_string(), self.completed.serialize());
        m.insert("reruns".to_string(), self.reruns.serialize());
        m.insert("timeouts".to_string(), self.timeouts.serialize());
        m.insert("lost".to_string(), self.lost.serialize());
        m.insert(
            "slo_violations".to_string(),
            self.slo_violations.serialize(),
        );
        // Hedging tallies appear only when hedging actually fired, so
        // hedge-free reports keep their exact historical byte layout.
        if self.hedged != 0 {
            m.insert("hedged".to_string(), self.hedged.serialize());
        }
        if self.cancelled != 0 {
            m.insert("cancelled".to_string(), self.cancelled.serialize());
        }
        m.insert("wait".to_string(), self.wait.serialize());
        m.insert("response".to_string(), self.response.serialize());
        m.insert("service".to_string(), self.service.serialize());
        serde::Value::Object(m)
    }
}

/// What `EngineCtx::complete` computed for one finished request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The function the request belonged to.
    pub fn_idx: u32,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Waiting time in seconds.
    pub wait: f64,
    /// Service time in seconds.
    pub service: f64,
    /// Response time in seconds.
    pub response: f64,
    /// Whether the wait exceeded the function's SLO deadline.
    pub violated_slo: bool,
}

/// Everything the engine measured, handed to
/// [`SchedulerPolicy::finish`].
#[derive(Debug)]
pub struct EngineOutcome {
    /// Per-function statistics, indexed by registration order.
    pub per_fn: Vec<FnStats>,
    /// Requests still unanswered when the run ended.
    pub outstanding: usize,
    /// The nominal duration of the run (seconds).
    pub duration_secs: f64,
}

/// The engine surface a [`SchedulerPolicy`] drives during a run.
///
/// [`EngineCtx`] is the canonical implementation; wrappers (such as the
/// per-site scoped context used by [`crate::federation::Federation`])
/// implement it too, remapping event payloads and statistics so a policy
/// written against this trait runs unchanged whether it owns the whole
/// simulation or one site of a federated topology.
pub trait PolicyCtx<E> {
    /// Schedule a policy event at absolute time `at`.
    fn schedule(&mut self, at: SimTime, ev: E);
    /// The nominal end of the run. Recurring timers should not
    /// reschedule at or past this instant.
    fn end_time(&self) -> SimTime;
    /// Number of registered functions.
    fn fn_count(&self) -> usize;
    /// The function's deterministic service-time stream.
    fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng;
    /// Look up a live request: `(fn_idx, arrival)`.
    fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)>;
    /// Record a completion (see [`EngineCtx::complete`]).
    ///
    /// `None` means the completion was **not** recorded — the request is
    /// unknown (already retired), or a wrapping context withheld it (a
    /// federated site stalling responses behind a network partition).
    /// Policies must tolerate `None` and skip their own completion
    /// accounting; the request may still be live engine-side.
    fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion>;
    /// Abandon a request that exceeded a hard time limit.
    fn abandon(&mut self, rid: ReqId) -> Option<u32>;
    /// Drop a request that could not be placed anywhere.
    fn lose(&mut self, rid: ReqId) -> Option<u32>;
    /// Note that a live request lost its server and will be re-dispatched.
    fn rerun(&mut self, rid: ReqId) -> Option<u32>;
    /// Arrival counts per function since the previous call; resets the
    /// windows.
    fn take_window_counts(&mut self) -> Vec<u64>;
    /// Requests currently in flight.
    fn outstanding(&self) -> usize;

    // --- Hedging support (defaulted so contexts that cannot hedge — or
    // that merely forward to an inner context — need no changes). ---

    /// Schedule a policy event and return a cancellation token for it.
    /// Contexts without a cancellable calendar return `None`; callers
    /// must then treat the event as uncancellable and make its handler
    /// a liveness-checked no-op, which keeps behaviour (and reports)
    /// identical either way.
    fn schedule_cancellable(&mut self, at: SimTime, ev: E) -> Option<u64> {
        self.schedule(at, ev);
        None
    }
    /// Cancel a pending event by its [`PolicyCtx::schedule_cancellable`]
    /// token. Returns whether the event was still pending. Tokens are
    /// never reused, so a stale cancel is always a no-op.
    fn cancel_scheduled(&mut self, _token: u64) -> bool {
        false
    }
    /// Tally a hedge clone dispatched for `fn_idx`.
    fn note_hedged(&mut self, _fn_idx: u32) {}
    /// Tally a hedge clone cancelled (its sibling won) for `fn_idx`.
    fn note_cancelled(&mut self, _fn_idx: u32) {}
    /// The policy dropped a queued copy of `rid` unserved because
    /// [`PolicyCtx::request_info`] no longer knows it (it was retired
    /// upstream). A federated site forgets the copy's hedge mark; a
    /// wrapping context must forward the call.
    fn discard(&mut self, _rid: ReqId) {}
}

/// A scheduling policy plugged into the engine.
///
/// The engine delivers arrivals and the policy's own scheduled events;
/// the policy decides placement/scaling and reports request outcomes
/// back through its [`PolicyCtx`]. Policies are written against the
/// trait rather than [`EngineCtx`] directly so the same implementation
/// can be instantiated once per site under a federated topology.
pub trait SchedulerPolicy {
    /// Policy-private event payloads (timers, completions, failures…).
    type Event;
    /// The report type produced at the end of a run.
    type Report;

    /// Whether [`Self::finish`] reads the `wait`/`service`/`response`
    /// samples of its [`EngineOutcome`]. A federated site whose policy
    /// declares `false` still counts its completions and SLO
    /// violations, but records no samples; the engine's own statistics
    /// always record. A wrapping policy must forward the value of the
    /// policy it wraps.
    const READS_SAMPLES: bool = true;

    /// Called once before the pump starts (arrival events are already
    /// scheduled). Set up initial state and recurring timers here.
    fn on_start(&mut self, ctx: &mut impl PolicyCtx<Self::Event>);

    /// A new request arrived for function `fn_idx`.
    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<Self::Event>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    );

    /// One of the policy's own events fired.
    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Self::Event>, ev: Self::Event, now: SimTime);

    /// Build the final report from the engine's measurements.
    fn finish(self, outcome: EngineOutcome) -> Self::Report;
}

enum Ev<E> {
    Arrival(u32),
    Policy(E),
}

struct FnRt {
    entry_name: String,
    slo_deadline: f64,
    process: Box<dyn ArrivalProcess + Send>,
    arrival_rng: SimRng,
    service_rng: SimRng,
    window_count: u64,
    arrivals: usize,
    completed: usize,
    reruns: usize,
    timeouts: usize,
    lost: usize,
    slo_violations: usize,
    hedged: usize,
    cancelled: usize,
    wait: SampleStats,
    response: SampleStats,
    service: SampleStats,
}

/// The engine's mutable state, exposed to the policy during a run.
pub struct EngineCtx<E> {
    events: EventQueue<Ev<E>>,
    fns: Vec<FnRt>,
    requests: RequestTable,
    next_req: u64,
    end: SimTime,
    hard_end: SimTime,
}

impl<E> EngineCtx<E> {
    fn new(cfg: &EngineConfig, functions: Vec<FunctionEntry>) -> Self {
        let new_stats = if cfg.stream_stats {
            SampleStats::streaming
        } else {
            SampleStats::new
        };
        let fns = functions
            .into_iter()
            .enumerate()
            .map(|(i, f)| FnRt {
                entry_name: f.name,
                slo_deadline: f.slo_deadline,
                process: f.process,
                arrival_rng: SimRng::from_seed_label(
                    cfg.seed,
                    &format!("{}arrival:{i}", cfg.rng_label_prefix),
                ),
                service_rng: SimRng::from_seed_label(
                    cfg.seed,
                    &format!("{}service:{i}", cfg.rng_label_prefix),
                ),
                window_count: 0,
                arrivals: 0,
                completed: 0,
                reruns: 0,
                timeouts: 0,
                lost: 0,
                slo_violations: 0,
                hedged: 0,
                cancelled: 0,
                wait: new_stats(),
                response: new_stats(),
                service: new_stats(),
            })
            .collect();
        let end = SimTime::from_secs_f64(cfg.duration_secs);
        Self {
            events: EventQueue::new(),
            fns,
            requests: RequestTable::new(),
            next_req: 0,
            end,
            hard_end: end + SimDuration::from_secs_f64(cfg.drain_secs),
        }
    }

    /// Number of registered functions.
    pub fn fn_count(&self) -> usize {
        self.fns.len()
    }

    /// The nominal end of the run. Recurring timers should not
    /// reschedule at or past this instant.
    pub fn end_time(&self) -> SimTime {
        self.end
    }

    /// Schedule a policy event at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        self.events.schedule(at, Ev::Policy(ev));
    }

    /// Schedule a policy event and return its cancellation token.
    pub fn schedule_cancellable(&mut self, at: SimTime, ev: E) -> u64 {
        self.events.schedule_cancellable(at, Ev::Policy(ev))
    }

    /// Cancel a pending event; returns whether it was still pending.
    pub fn cancel_scheduled(&mut self, token: u64) -> bool {
        self.events.cancel(token)
    }

    /// The function's deterministic service-time stream.
    pub fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng {
        &mut self.fns[fn_idx as usize].service_rng
    }

    /// Look up a live request: `(fn_idx, arrival)`.
    pub fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)> {
        self.requests.get(rid.0)
    }

    /// Record a completion: computes wait/service/response from the
    /// stored arrival, feeds the function's statistics, and retires the
    /// request. Returns `None` for an unknown (already retired) request.
    pub fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion> {
        let (fn_idx, arrival) = self.requests.remove(rid.0)?;
        let wait = started.saturating_since(arrival).as_secs_f64();
        let service = now.saturating_since(started).as_secs_f64();
        let response = now.saturating_since(arrival).as_secs_f64();
        let rt = &mut self.fns[fn_idx as usize];
        rt.completed += 1;
        rt.wait.record(wait);
        rt.service.record(service);
        rt.response.record(response);
        let violated_slo = wait > rt.slo_deadline;
        if violated_slo {
            rt.slo_violations += 1;
        }
        Some(Completion {
            fn_idx,
            arrival,
            wait,
            service,
            response,
            violated_slo,
        })
    }

    /// Abandon a request that exceeded a hard time limit: counts as a
    /// timeout *and* an SLO violation, and retires the request.
    pub fn abandon(&mut self, rid: ReqId) -> Option<u32> {
        let (fn_idx, _) = self.requests.remove(rid.0)?;
        let rt = &mut self.fns[fn_idx as usize];
        rt.timeouts += 1;
        rt.slo_violations += 1;
        Some(fn_idx)
    }

    /// Drop a request that could not be placed anywhere.
    pub fn lose(&mut self, rid: ReqId) -> Option<u32> {
        let (fn_idx, _) = self.requests.remove(rid.0)?;
        self.fns[fn_idx as usize].lost += 1;
        Some(fn_idx)
    }

    /// Note that a live request lost its server and will be
    /// re-dispatched. Returns the owning function while keeping the
    /// request alive.
    pub fn rerun(&mut self, rid: ReqId) -> Option<u32> {
        let (fn_idx, _) = self.requests.get(rid.0)?;
        self.fns[fn_idx as usize].reruns += 1;
        Some(fn_idx)
    }

    /// Arrival counts per function since the previous call (for rate
    /// monitors); resets the windows.
    pub fn take_window_counts(&mut self) -> Vec<u64> {
        self.fns
            .iter_mut()
            .map(|rt| std::mem::take(&mut rt.window_count))
            .collect()
    }

    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.requests.len()
    }

    /// Tally a hedge clone dispatched for `fn_idx`.
    pub fn note_hedged(&mut self, fn_idx: u32) {
        self.fns[fn_idx as usize].hedged += 1;
    }

    /// Tally a hedge clone cancelled for `fn_idx`.
    pub fn note_cancelled(&mut self, fn_idx: u32) {
        self.fns[fn_idx as usize].cancelled += 1;
    }

    /// Generation-stamped slot token for a live request (see
    /// [`RequestTable::slot_token`]); used by hedging layers to make a
    /// stale cancel of a reused slot a provable no-op.
    pub fn request_token(&self, rid: ReqId) -> Option<u64> {
        self.requests.slot_token(rid.0)
    }

    /// Whether `token` still refers to `rid`'s live record.
    pub fn request_token_live(&self, rid: ReqId, token: u64) -> bool {
        self.requests.token_live(rid.0, token)
    }

    fn new_request(&mut self, fn_idx: u32, now: SimTime) -> ReqId {
        let rid = ReqId(self.next_req);
        self.next_req += 1;
        self.requests.insert(rid.0, fn_idx, now);
        let rt = &mut self.fns[fn_idx as usize];
        rt.arrivals += 1;
        rt.window_count += 1;
        rid
    }

    fn schedule_next_arrival(&mut self, fn_idx: u32, now: SimTime) {
        let rt = &mut self.fns[fn_idx as usize];
        if let Some(t) = rt.process.next_after(now, &mut rt.arrival_rng) {
            self.events.schedule(t, Ev::Arrival(fn_idx));
        }
    }

    /// The current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    fn into_outcome(self, duration_secs: f64) -> EngineOutcome {
        EngineOutcome {
            outstanding: self.requests.len(),
            per_fn: self
                .fns
                .into_iter()
                .map(|rt| FnStats {
                    name: rt.entry_name,
                    slo_deadline: rt.slo_deadline,
                    arrivals: rt.arrivals,
                    completed: rt.completed,
                    reruns: rt.reruns,
                    timeouts: rt.timeouts,
                    lost: rt.lost,
                    slo_violations: rt.slo_violations,
                    hedged: rt.hedged,
                    cancelled: rt.cancelled,
                    wait: rt.wait,
                    response: rt.response,
                    service: rt.service,
                })
                .collect(),
            duration_secs,
        }
    }
}

impl<E> PolicyCtx<E> for EngineCtx<E> {
    fn schedule(&mut self, at: SimTime, ev: E) {
        EngineCtx::schedule(self, at, ev);
    }
    fn end_time(&self) -> SimTime {
        EngineCtx::end_time(self)
    }
    fn fn_count(&self) -> usize {
        EngineCtx::fn_count(self)
    }
    fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng {
        EngineCtx::service_rng(self, fn_idx)
    }
    fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)> {
        EngineCtx::request_info(self, rid)
    }
    fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion> {
        EngineCtx::complete(self, rid, started, now)
    }
    fn abandon(&mut self, rid: ReqId) -> Option<u32> {
        EngineCtx::abandon(self, rid)
    }
    fn lose(&mut self, rid: ReqId) -> Option<u32> {
        EngineCtx::lose(self, rid)
    }
    fn rerun(&mut self, rid: ReqId) -> Option<u32> {
        EngineCtx::rerun(self, rid)
    }
    fn take_window_counts(&mut self) -> Vec<u64> {
        EngineCtx::take_window_counts(self)
    }
    fn outstanding(&self) -> usize {
        EngineCtx::outstanding(self)
    }
    fn schedule_cancellable(&mut self, at: SimTime, ev: E) -> Option<u64> {
        Some(EngineCtx::schedule_cancellable(self, at, ev))
    }
    fn cancel_scheduled(&mut self, token: u64) -> bool {
        EngineCtx::cancel_scheduled(self, token)
    }
    fn note_hedged(&mut self, fn_idx: u32) {
        EngineCtx::note_hedged(self, fn_idx);
    }
    fn note_cancelled(&mut self, fn_idx: u32) {
        EngineCtx::note_cancelled(self, fn_idx);
    }
}

/// Run `policy` over `functions` until the calendar drains or the hard
/// deadline passes, then let the policy build its report.
pub fn run_simulation<P: SchedulerPolicy>(
    cfg: EngineConfig,
    functions: Vec<FunctionEntry>,
    mut policy: P,
) -> P::Report {
    assert!(
        cfg.duration_secs > 0.0,
        "simulation needs a positive duration"
    );
    let duration_secs = cfg.duration_secs;
    let mut ctx = EngineCtx::new(&cfg, functions);
    for i in 0..ctx.fns.len() as u32 {
        ctx.schedule_next_arrival(i, SimTime::ZERO);
    }
    policy.on_start(&mut ctx);
    while let Some((now, ev)) = ctx.events.pop() {
        if now > ctx.hard_end {
            break;
        }
        match ev {
            Ev::Arrival(fn_idx) => {
                let rid = ctx.new_request(fn_idx, now);
                policy.on_arrival(&mut ctx, rid, fn_idx, now);
                ctx.schedule_next_arrival(fn_idx, now);
            }
            Ev::Policy(e) => policy.on_event(&mut ctx, e, now),
        }
    }
    policy.finish(ctx.into_outcome(duration_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::StaticPoisson;

    /// A trivial single-server FCFS policy used to exercise the engine.
    struct SingleServer {
        busy: bool,
        queue: std::collections::VecDeque<(ReqId, SimTime)>,
        service_secs: f64,
    }

    enum SsEv {
        Done(ReqId, SimTime),
    }

    impl SchedulerPolicy for SingleServer {
        type Event = SsEv;
        type Report = EngineOutcome;

        fn on_start(&mut self, _ctx: &mut impl PolicyCtx<SsEv>) {}

        fn on_arrival(
            &mut self,
            ctx: &mut impl PolicyCtx<SsEv>,
            rid: ReqId,
            _f: u32,
            now: SimTime,
        ) {
            if self.busy {
                self.queue.push_back((rid, now));
            } else {
                self.busy = true;
                ctx.schedule(
                    now + SimDuration::from_secs_f64(self.service_secs),
                    SsEv::Done(rid, now),
                );
            }
        }

        fn on_event(&mut self, ctx: &mut impl PolicyCtx<SsEv>, ev: SsEv, now: SimTime) {
            let SsEv::Done(rid, started) = ev;
            ctx.complete(rid, started, now);
            self.busy = false;
            if let Some((next, _)) = self.queue.pop_front() {
                self.busy = true;
                ctx.schedule(
                    now + SimDuration::from_secs_f64(self.service_secs),
                    SsEv::Done(next, now),
                );
            }
        }

        fn finish(self, outcome: EngineOutcome) -> EngineOutcome {
            outcome
        }
    }

    fn run_once(seed: u64) -> EngineOutcome {
        run_simulation(
            EngineConfig {
                seed,
                rng_label_prefix: String::new(),
                duration_secs: 60.0,
                drain_secs: 30.0,
                stream_stats: false,
                parallel_sites: None,
            },
            vec![FunctionEntry {
                name: "probe".into(),
                slo_deadline: 0.5,
                process: Box::new(StaticPoisson::until(5.0, SimTime::from_secs(60))),
            }],
            SingleServer {
                busy: false,
                queue: Default::default(),
                service_secs: 0.05,
            },
        )
    }

    #[test]
    fn engine_runs_and_completes_requests() {
        let out = run_once(1);
        let f = &out.per_fn[0];
        assert!(f.arrivals > 200, "arrivals={}", f.arrivals);
        assert_eq!(f.completed + out.outstanding, f.arrivals);
        assert!(f.wait.count() == f.completed);
        assert!(f.slo_violations <= f.completed);
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let (a, b, c) = (run_once(7), run_once(7), run_once(8));
        assert_eq!(a.per_fn[0].arrivals, b.per_fn[0].arrivals);
        assert_eq!(a.per_fn[0].wait.samples(), b.per_fn[0].wait.samples());
        assert_ne!(a.per_fn[0].wait.samples(), c.per_fn[0].wait.samples());
    }

    #[test]
    fn lifecycle_counters_are_disjoint() {
        // Abandon / lose / rerun bookkeeping.
        struct DropAll;
        impl SchedulerPolicy for DropAll {
            type Event = ();
            type Report = EngineOutcome;
            fn on_start(&mut self, _ctx: &mut impl PolicyCtx<()>) {}
            fn on_arrival(
                &mut self,
                ctx: &mut impl PolicyCtx<()>,
                rid: ReqId,
                _f: u32,
                now: SimTime,
            ) {
                match rid.0 % 3 {
                    0 => {
                        ctx.lose(rid);
                    }
                    1 => {
                        ctx.abandon(rid);
                    }
                    _ => {
                        ctx.rerun(rid);
                        ctx.complete(rid, now, now + SimDuration::from_millis(10));
                    }
                }
            }
            fn on_event(&mut self, _ctx: &mut impl PolicyCtx<()>, _ev: (), _now: SimTime) {}
            fn finish(self, outcome: EngineOutcome) -> EngineOutcome {
                outcome
            }
        }
        let out = run_simulation(
            EngineConfig {
                seed: 3,
                rng_label_prefix: "x-".into(),
                duration_secs: 30.0,
                drain_secs: 10.0,
                stream_stats: false,
                parallel_sites: None,
            },
            vec![FunctionEntry {
                name: "drops".into(),
                slo_deadline: 0.1,
                process: Box::new(StaticPoisson::until(10.0, SimTime::from_secs(30))),
            }],
            DropAll,
        );
        let f = &out.per_fn[0];
        assert_eq!(f.lost + f.timeouts + f.completed, f.arrivals);
        assert_eq!(f.reruns, f.completed);
        assert_eq!(out.outstanding, 0);
    }
}
