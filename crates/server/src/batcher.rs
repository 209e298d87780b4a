//! The decode gateway: a cross-connection batching scheduler.
//!
//! Decoding each connection alone would run the transformer forward — the
//! dominant server-side cost — once per stream. The gateway parks
//! per-connection `DECODE` requests in a bounded queue; a scheduler thread
//! closes a *batching window* when either [`GatewayConfig::max_batch`] jobs
//! have accumulated or the window's wait budget has elapsed since the
//! window opened, then hands the whole window to a small decode-worker
//! pool sharing one [`EaszDecoder`]. The decoder fuses the window —
//! containers with matching erase *counts* share a single forward even
//! with distinct mask positions (`MultiMaskPlan`) — and each reply (or
//! per-stream typed error) is routed back to its originating connection
//! through a reply callback.
//!
//! Fairness: jobs are parked per *source* (one source per connection) and
//! windows are drawn round-robin, one job per source per cycle, so a
//! connection flooding the queue cannot fill every window while others
//! starve. The `max_wait_us` promise is still measured from the oldest
//! parked job, whichever source it belongs to.
//!
//! With [`GatewayConfig::adaptive_wait`] enabled the wait budget shrinks
//! below `max_wait_us` when the observed inter-arrival EWMA says the queue
//! will not plausibly fill a window within the budget — sparse traffic
//! stops paying latency for batching that will never materialise.
//!
//! Every decode of the server passes through here, on both front ends. The
//! gateway degrades gracefully rather than blocking: a full queue or a
//! shutdown in progress refuses the job, and the connection answers it with
//! a positional `BUSY` error. Nothing decodes outside the gateway's workers.

use crate::fault;
use crate::metrics::ServerMetrics;
use crate::trace::{SpanCtx, TraceStage};
use easz_core::{DecodeEngine, EaszDecoder, EaszEncoded, EaszError};
use easz_image::ImageF32;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Turns a caught panic payload into the `Internal` error's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Tunables of the decode gateway (see
/// [`EaszServer::with_gateway`](crate::EaszServer::with_gateway)).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// A batching window dispatches as soon as it holds this many requests.
    pub max_batch: usize,
    /// A batching window dispatches at latest this many microseconds after
    /// its first request arrived — the latency each request is willing to
    /// pay for a chance to share a forward.
    pub max_wait_us: u64,
    /// Decode worker threads draining dispatched windows. More than one
    /// lets a new window decode while a slow one is still in flight.
    pub workers: usize,
    /// Requests parked in the queue before the gateway starts refusing
    /// (refused requests are shed with a positional `BUSY` error).
    pub queue_depth: usize,
    /// Scale the wait budget by the observed arrival rate: when the
    /// inter-arrival EWMA says the window cannot plausibly fill within
    /// `max_wait_us`, dispatch early instead of sleeping out the full
    /// budget. `max_wait_us` remains the hard ceiling either way.
    pub adaptive_wait: bool,
    /// Per-request deadline in microseconds, measured from admission
    /// (`0` = no deadline). A job that no worker has picked up when its
    /// deadline passes is swept unstarted and answered with the typed
    /// `DEADLINE_EXCEEDED` error instead of parking its handler in
    /// `reply.recv()` for as long as the pool is stalled. The deadline
    /// bounds *scheduling*, not decode duration: a job whose decode began
    /// in time completes normally even if it finishes late.
    pub deadline_us: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_wait_us: 2_000,
            workers: 2,
            queue_depth: 256,
            adaptive_wait: false,
            deadline_us: 0,
        }
    }
}

/// How a decode result travels back to its connection: the threaded path
/// wraps an `mpsc` sender, the reactor path serialises the reply frame and
/// posts it to the event loop's completion queue. The request's trace span
/// (if tracing is on) rides along so the connection side can stamp the
/// reply milestones and close it.
pub(crate) type ReplyFn =
    Box<dyn FnOnce(Result<ImageF32, EaszError>, Option<SpanCtx>) + Send + 'static>;

/// One parked decode request: the parsed container, the engine tier it
/// decodes on, the submitting source (connection) and the callback its
/// reply returns through.
struct Job {
    container: EaszEncoded,
    engine: DecodeEngine,
    /// The submitting connection, for the fairness draw's rotation (kept
    /// on the job so tests can assert draw order).
    #[cfg_attr(not(test), allow(dead_code))]
    source: u64,
    enqueued: Instant,
    /// Sweep-by instant ([`GatewayConfig::deadline_us`]; `None` = never).
    deadline: Option<Instant>,
    /// Trace span carried with the request (`None` when tracing is off).
    span: Option<SpanCtx>,
    reply: ReplyFn,
}

impl Job {
    /// Stamps a trace milestone, if this job carries a span.
    #[inline]
    fn stamp(&mut self, stage: TraceStage) {
        if let Some(span) = &mut self.span {
            span.stamp(stage);
        }
    }
}

impl Job {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// Shared scheduler state behind the queue mutex: per-source queues plus a
/// round-robin rotation of sources that currently have parked jobs.
#[derive(Default)]
struct QueueState {
    queues: HashMap<u64, VecDeque<Job>>,
    /// Sources with at least one parked job, in draw order.
    rotation: VecDeque<u64>,
    /// Total parked jobs across all sources (the queue-depth bound).
    total: usize,
    shutdown: bool,
    /// When the previous submission arrived, for the inter-arrival EWMA.
    last_arrival: Option<Instant>,
    /// EWMA of µs between submissions (`0` = no estimate yet).
    arrival_ewma_us: u64,
}

impl QueueState {
    /// Enqueue time of the oldest parked job across all sources — the
    /// instant the current batching window opened.
    fn oldest_enqueued(&self) -> Option<Instant> {
        self.queues.values().filter_map(|q| q.front()).map(|j| j.enqueued).min()
    }

    /// Draws up to `max_batch` jobs round-robin: one job per source per
    /// cycle, so every active source lands in the window before any source
    /// gets a second slot.
    fn draw_window(&mut self, max_batch: usize) -> Vec<Job> {
        let mut window = Vec::with_capacity(max_batch.min(self.total));
        while window.len() < max_batch {
            let Some(source) = self.rotation.pop_front() else { break };
            let queue = self.queues.get_mut(&source).expect("rotated source has a queue");
            let mut job = queue.pop_front().expect("rotated source queue is nonempty");
            self.total -= 1;
            job.stamp(TraceStage::WindowClosed);
            window.push(job);
            if queue.is_empty() {
                self.queues.remove(&source);
            } else {
                self.rotation.push_back(source);
            }
        }
        window
    }
}

/// Dispatched-window state behind the worker mutex.
#[derive(Default)]
struct ReadyState {
    windows: VecDeque<Vec<Job>>,
    /// Set once the scheduler has exited; workers drain and stop.
    scheduler_done: bool,
}

/// Why [`Batcher::run_worker`] returned — the supervisor's signal to
/// either stop (clean shutdown) or respawn the worker (a caught panic may
/// have left thread-affine decode state inconsistent, so the crash-only
/// answer is a fresh worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerExit {
    /// The scheduler finished and every window is drained.
    Shutdown,
    /// A decode panic was caught in this worker's last window; every job
    /// in the window was still answered. Re-enter [`Batcher::run_worker`]
    /// to resume with a clean slate.
    Poisoned,
}

/// The wait budget (µs) for the currently open window, given how many jobs
/// it already holds and the observed inter-arrival EWMA.
///
/// Without `adaptive_wait` (or before any estimate exists) this is simply
/// `max_wait_us`. Adaptively: if arrivals are slower than the whole budget
/// there is no point waiting at all; otherwise wait just long enough for
/// the remaining slots to plausibly fill (25% slack), capped at
/// `max_wait_us`.
fn effective_wait_us(config: &GatewayConfig, queued: usize, ewma_us: u64) -> u64 {
    if !config.adaptive_wait || ewma_us == 0 {
        return config.max_wait_us;
    }
    if ewma_us >= config.max_wait_us {
        return 0;
    }
    let remaining_slots = config.max_batch.saturating_sub(queued) as u64;
    config.max_wait_us.min(remaining_slots.saturating_mul(ewma_us).saturating_mul(5) / 4)
}

/// The gateway: submission queue, window scheduler and worker rendezvous.
///
/// Thread bodies ([`run_scheduler`](Self::run_scheduler),
/// [`run_worker`](Self::run_worker)) are spawned by the server inside its
/// connection scope so they can borrow the shared decoder.
pub(crate) struct Batcher {
    config: GatewayConfig,
    metrics: Arc<ServerMetrics>,
    queue: Mutex<QueueState>,
    queue_cond: Condvar,
    ready: Mutex<ReadyState>,
    ready_cond: Condvar,
}

impl Batcher {
    pub fn new(config: GatewayConfig, metrics: Arc<ServerMetrics>) -> Self {
        assert!(config.max_batch > 0, "gateway max_batch must be positive");
        assert!(config.workers > 0, "gateway needs at least one worker");
        assert!(config.queue_depth > 0, "gateway queue_depth must be positive");
        Self {
            config,
            metrics,
            queue: Mutex::new(QueueState::default()),
            queue_cond: Condvar::new(),
            ready: Mutex::new(ReadyState::default()),
            ready_cond: Condvar::new(),
        }
    }

    /// Parks a parsed container for batched decoding on the given engine
    /// tier. `source` identifies the submitting connection for the
    /// round-robin fairness draw; `reply` is invoked exactly once with the
    /// result, on a decode-worker thread. If the gateway cannot take the
    /// job (full queue or shutdown) the container and callback are dropped
    /// and only the span comes back, for the caller's `BUSY` reply. Jobs
    /// on different tiers may share a window but never a model forward
    /// (the tier joins the decoder's fusion key).
    pub fn submit(
        &self,
        container: EaszEncoded,
        engine: DecodeEngine,
        source: u64,
        span: Option<SpanCtx>,
        reply: ReplyFn,
    ) -> Result<(), Option<SpanCtx>> {
        // Fault hook (compiles out of default builds): refuse as if the
        // queue were saturated, exercising the shed path.
        if fault::submit_refuse() {
            return Err(span);
        }
        let mut state = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if state.shutdown || state.total >= self.config.queue_depth {
            return Err(span);
        }
        let now = Instant::now();
        if let Some(prev) = state.last_arrival {
            let dt = now.saturating_duration_since(prev).as_micros().min(u64::MAX as u128) as u64;
            state.arrival_ewma_us =
                if state.arrival_ewma_us == 0 { dt } else { (7 * state.arrival_ewma_us + dt) / 8 };
            self.metrics.record_arrival_ewma(state.arrival_ewma_us);
        }
        state.last_arrival = Some(now);
        let deadline = (self.config.deadline_us > 0)
            .then(|| now + Duration::from_micros(self.config.deadline_us));
        let mut job = Job { container, engine, source, enqueued: now, deadline, span, reply };
        job.stamp(TraceStage::Enqueued);
        let queue = state.queues.entry(source).or_default();
        let newly_active = queue.is_empty();
        queue.push_back(job);
        if newly_active {
            state.rotation.push_back(source);
        }
        state.total += 1;
        self.metrics.record_queue_depth(state.total);
        drop(state);
        self.queue_cond.notify_one();
        Ok(())
    }

    /// Signals shutdown: no new submissions are accepted, the scheduler
    /// flushes whatever is queued into final windows and exits, and the
    /// workers drain the remaining windows before stopping. Already-parked
    /// jobs still get replies, so draining connections are answered.
    pub fn shutdown(&self) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
        self.queue_cond.notify_all();
        self.ready_cond.notify_all();
    }

    /// The sweep cadence when deadlines are enabled: expired jobs are
    /// answered at most one tick past their deadline, and the scheduler's
    /// waits tick at this period instead of blocking indefinitely.
    fn sweep_tick(&self) -> Option<Duration> {
        (self.config.deadline_us > 0)
            .then(|| Duration::from_micros((self.config.deadline_us / 4).clamp(1_000, 50_000)))
    }

    /// Sweeps expired jobs from everywhere they can park — the submission
    /// queues, the dispatched-window backlog, and `local` (a window the
    /// scheduler holds while waiting for a backlog slot) — and answers
    /// each with `DEADLINE_EXCEEDED` outside all locks. No-op when
    /// deadlines are off.
    fn sweep_expired(&self, local: &mut Vec<Job>) {
        if self.config.deadline_us == 0 {
            return;
        }
        let now = Instant::now();
        let mut expired: Vec<(Option<SpanCtx>, ReplyFn)> = Vec::new();
        {
            let mut state = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            let QueueState { queues, rotation, total, .. } = &mut *state;
            for queue in queues.values_mut() {
                // Deadlines are admission-ordered within a source, so the
                // expired jobs are exactly a front prefix.
                while queue.front().is_some_and(|j| j.expired(now)) {
                    let job = queue.pop_front().expect("checked front");
                    expired.push((job.span, job.reply));
                    *total -= 1;
                }
            }
            queues.retain(|_, q| !q.is_empty());
            rotation.retain(|s| queues.contains_key(s));
            self.metrics.record_queue_depth(state.total);
        }
        {
            let mut ready = self.ready.lock().unwrap_or_else(|e| e.into_inner());
            for window in ready.windows.iter_mut() {
                Self::sweep_window(window, now, &mut expired);
            }
            let emptied = ready.windows.iter().any(|w| w.is_empty());
            if emptied {
                ready.windows.retain(|w| !w.is_empty());
                // Empty windows freed backlog slots the scheduler may be
                // waiting on.
                self.ready_cond.notify_all();
            }
        }
        Self::sweep_window(local, now, &mut expired);
        for (span, reply) in expired {
            self.metrics.record_deadline_expired();
            reply(Err(EaszError::DeadlineExceeded), span);
        }
    }

    /// Moves the expired jobs of one window into `expired`, preserving the
    /// order of the survivors.
    fn sweep_window(
        window: &mut Vec<Job>,
        now: Instant,
        expired: &mut Vec<(Option<SpanCtx>, ReplyFn)>,
    ) {
        if window.iter().any(|j| j.expired(now)) {
            let jobs = std::mem::take(window);
            for job in jobs {
                if job.expired(now) {
                    expired.push((job.span, job.reply));
                } else {
                    window.push(job);
                }
            }
        }
    }

    /// The scheduler thread: forms batching windows and hands them to the
    /// workers. Runs until [`shutdown`](Self::shutdown) and the queue is
    /// drained.
    pub fn run_scheduler(&self) {
        let tick = self.sweep_tick();
        loop {
            let mut state = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            while state.total == 0 && !state.shutdown {
                match tick {
                    None => {
                        state = self.queue_cond.wait(state).unwrap_or_else(|e| e.into_inner());
                    }
                    Some(tick) => {
                        // Tick even while idle: the ready backlog can still
                        // hold jobs aging toward their deadline.
                        let (next, timeout) = self
                            .queue_cond
                            .wait_timeout(state, tick)
                            .unwrap_or_else(|e| e.into_inner());
                        state = next;
                        if timeout.timed_out() {
                            drop(state);
                            self.sweep_expired(&mut Vec::new());
                            state = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                        }
                    }
                }
            }
            if state.total == 0 {
                break; // shutdown with nothing left to flush
            }
            // A window is open — and has been since its oldest job arrived,
            // which is what the wait-budget promise is measured from (a
            // leftover job from an earlier burst must not restart the
            // budget). Collect until the window is full, the budget is
            // spent, or shutdown asks for an immediate flush. The budget
            // itself is re-evaluated on every wake: with adaptive waiting
            // it shrinks as the arrival estimate says further jobs are
            // unlikely to land in time.
            let opened = state.oldest_enqueued().expect("open window has a head job");
            while state.total < self.config.max_batch && !state.shutdown {
                let budget = Duration::from_micros(effective_wait_us(
                    &self.config,
                    state.total,
                    state.arrival_ewma_us,
                ));
                let Some(remaining) = budget.checked_sub(opened.elapsed()) else { break };
                let (next, timeout) = self
                    .queue_cond
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(|e| e.into_inner());
                state = next;
                if timeout.timed_out() {
                    break;
                }
            }
            let mut window = state.draw_window(self.config.max_batch);
            self.metrics.record_queue_depth(state.total);
            drop(state);
            // Hand over — but never outrun the workers: the ready backlog
            // is bounded at one pending window per worker, so under
            // sustained overload jobs pile up in the *submission* queue,
            // whose bound is what makes `submit` refuse and the front end
            // shed (and what the queue-depth metrics watch).
            // With deadlines on, the wait ticks and sweeps instead of
            // parking: a stalled worker pool must not let drawn or queued
            // jobs age past their deadline unanswered.
            let mut ready = self.ready.lock().unwrap_or_else(|e| e.into_inner());
            while ready.windows.len() >= self.config.workers {
                match tick {
                    None => {
                        ready = self.ready_cond.wait(ready).unwrap_or_else(|e| e.into_inner());
                    }
                    Some(tick) => {
                        let (next, _) = self
                            .ready_cond
                            .wait_timeout(ready, tick)
                            .unwrap_or_else(|e| e.into_inner());
                        ready = next;
                        drop(ready);
                        self.sweep_expired(&mut window);
                        ready = self.ready.lock().unwrap_or_else(|e| e.into_inner());
                        if window.is_empty() {
                            break; // the whole window expired while parked
                        }
                    }
                }
            }
            if !window.is_empty() {
                ready.windows.push_back(window);
            }
            drop(ready);
            self.ready_cond.notify_all();
        }
        let mut ready = self.ready.lock().unwrap_or_else(|e| e.into_inner());
        ready.scheduler_done = true;
        drop(ready);
        self.ready_cond.notify_all();
    }

    /// A decode worker: drains dispatched windows through the shared
    /// decoder until the scheduler is done and no windows remain — or
    /// until a caught decode panic poisons it, at which point it returns
    /// [`WorkerExit::Poisoned`] (every job of the poisoned window was
    /// still answered) and the supervisor re-enters with a clean slate.
    pub fn run_worker(&self, decoder: &EaszDecoder<'_>) -> WorkerExit {
        loop {
            let mut ready = self.ready.lock().unwrap_or_else(|e| e.into_inner());
            while ready.windows.is_empty() && !ready.scheduler_done {
                ready = self.ready_cond.wait(ready).unwrap_or_else(|e| e.into_inner());
            }
            let Some(window) = ready.windows.pop_front() else {
                return WorkerExit::Shutdown; // scheduler done and nothing left
            };
            drop(ready);
            // The pop freed a backlog slot; the scheduler may be waiting
            // for exactly that.
            self.ready_cond.notify_all();
            if self.run_window(window, decoder) {
                return WorkerExit::Poisoned;
            }
        }
    }

    /// Decodes one window and routes each result to its connection.
    /// Returns `true` if a panic was caught (the worker should be
    /// respawned); even then, every job received exactly one reply.
    fn run_window(&self, window: Vec<Job>, decoder: &EaszDecoder<'_>) -> bool {
        let dispatched = Instant::now();
        // Jobs already past their deadline at dispatch are answered
        // without decoding — the deadline bounds time-to-decode-start.
        let (window, expired): (Vec<Job>, Vec<Job>) =
            window.into_iter().partition(|j| !j.expired(dispatched));
        for job in expired {
            self.metrics.record_deadline_expired();
            (job.reply)(Err(EaszError::DeadlineExceeded), job.span);
        }
        if window.is_empty() {
            return false;
        }
        let mut containers = Vec::with_capacity(window.len());
        let mut engines = Vec::with_capacity(window.len());
        let mut replies = Vec::with_capacity(window.len());
        let mut spans = Vec::with_capacity(window.len());
        for mut job in window {
            let waited = dispatched.saturating_duration_since(job.enqueued);
            self.metrics.record_queue_wait(waited.as_micros() as u64);
            job.stamp(TraceStage::Dispatched);
            containers.push(job.container);
            engines.push(job.engine);
            replies.push(job.reply);
            spans.push(job.span);
        }
        let (results, poisoned) =
            decode_window(decoder, &self.metrics, &containers, &engines, &mut spans);
        for ((reply, result), span) in replies.into_iter().zip(results).zip(spans) {
            // If the connection died while its job was queued the callback
            // finds nobody to deliver to and the result is simply dropped.
            reply(result, span);
        }
        poisoned
    }
}

/// Stamps `stage` on every span of a window.
fn stamp_all(spans: &mut [Option<SpanCtx>], stage: TraceStage) {
    for span in spans.iter_mut().flatten() {
        span.stamp(stage);
    }
}

/// The one decode routine of the serving stack: decodes a window of parsed
/// containers, each on its engine, and returns the results in window order
/// plus whether a panic was caught. Only a gateway worker calls it, with
/// one batching window ([`Batcher::run_window`]).
///
/// The window decodes as one fused call under `catch_unwind`. If that
/// panics, each container is re-decoded alone under its own boundary — a
/// window of one through the same pipeline, so the same image or the same
/// typed error — and only the culprit answers with
/// [`EaszError::Internal`]; its windowmates still get their images. The
/// fault hooks (a stalled decode, per-container forced panics) apply here
/// and nowhere else. `spans` are stamped `DecodeStart`/`DecodeEnd`; the
/// batch-width and decode-time histograms are fed.
fn decode_window(
    decoder: &EaszDecoder<'_>,
    metrics: &ServerMetrics,
    containers: &[EaszEncoded],
    engines: &[DecodeEngine],
    spans: &mut [Option<SpanCtx>],
) -> (Vec<Result<ImageF32, EaszError>>, bool) {
    /// The isolation boundary: a panic — injected for this container, or
    /// the decoder's own — is caught and handed back as `Err`.
    fn isolated<T>(
        inject: bool,
        decode: impl FnOnce() -> T,
    ) -> Result<T, Box<dyn std::any::Any + Send>> {
        catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("{}", fault::INJECTED_PANIC);
            }
            decode()
        }))
    }
    if let Some(delay) = fault::decode_delay() {
        std::thread::sleep(delay);
    }
    // Fault flags are drawn per container *before* the fused attempt so the
    // serial fallback re-fires the same panics.
    let injected: Vec<bool> = containers.iter().map(|_| fault::decode_panic()).collect();
    stamp_all(spans, TraceStage::DecodeStart);
    let started = Instant::now();
    let fused =
        isolated(injected.contains(&true), || decoder.decode_batch_with_stats(containers, engines));
    let decode_us = started.elapsed().as_micros() as u64;
    stamp_all(spans, TraceStage::DecodeEnd);
    let Ok((results, groups)) = fused else {
        metrics.record_panic_caught();
        let results = (0..containers.len())
            .map(|i| {
                let started = Instant::now();
                let outcome =
                    isolated(injected[i], || decoder.decode_as(&containers[i], engines[i]));
                let decode_us = started.elapsed().as_micros() as u64;
                metrics.record_decode_sample(decode_us);
                if let Some(span) = &mut spans[i] {
                    span.stamp(TraceStage::DecodeEnd);
                }
                match outcome {
                    Ok(result) => {
                        if result.is_ok() {
                            metrics.record_batch(1, decode_us);
                        }
                        result
                    }
                    Err(payload) => {
                        metrics.record_panic_caught();
                        Err(EaszError::Internal(panic_message(payload)))
                    }
                }
            })
            .collect();
        return (results, true);
    };
    // One histogram record per fused forward group, not per window: the
    // batch-width histogram measures how many containers actually shared a
    // transformer forward, so a window the decoder had to split (mixed
    // models, mixed tiers, mixed kept counts) reports its true fusion
    // widths. Decode time is apportioned by group width, remainder to the
    // last group so the total is preserved. A window whose every container
    // failed validation ran no forward and records nothing.
    let fused_width: usize = groups.iter().map(|&(_, width)| width).sum();
    let mut spent = 0u64;
    for (gi, &(_, width)) in groups.iter().enumerate() {
        let us = if gi + 1 == groups.len() {
            decode_us - spent
        } else {
            decode_us * width as u64 / fused_width as u64
        };
        spent += us;
        metrics.record_batch(width, us);
    }
    // Every container rode the same fused decode, so the window's decode
    // wall time is each one's decode latency.
    for _ in containers {
        metrics.record_decode_sample(decode_us);
    }
    (results, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use easz_codecs::{JpegLikeCodec, Quality};
    use easz_core::{EaszConfig, EaszEncoder, Reconstructor, ReconstructorConfig};
    use easz_data::Dataset;
    use std::sync::mpsc;

    fn container(seed: u64) -> EaszEncoded {
        let enc = EaszEncoder::new(EaszConfig { mask_seed: seed, ..EaszConfig::default() })
            .expect("encoder");
        let img = Dataset::KodakLike.image(seed as usize % 8).crop(0, 0, 64, 64);
        enc.compress(&img, &JpegLikeCodec::new(), Quality::new(75)).expect("compress")
    }

    /// Holds the fault serialization lock with a plan that injects nothing:
    /// the hooks are process-global, so a test that submits or decodes
    /// without it can draw a fault another test scheduled for itself.
    fn no_faults() -> fault::FaultGuard {
        fault::install(fault::FaultPlan::default())
    }

    /// Submits through a channel-backed reply, mirroring the threaded path.
    /// `None` if the gateway refused the job.
    fn submit_chan(
        batcher: &Batcher,
        container: EaszEncoded,
        engine: DecodeEngine,
        source: u64,
    ) -> Option<mpsc::Receiver<Result<ImageF32, EaszError>>> {
        let (tx, rx) = mpsc::channel();
        let reply = Box::new(move |result, _span| {
            let _ = tx.send(result);
        });
        batcher.submit(container, engine, source, None, reply).ok().map(|()| rx)
    }

    /// Drives a batcher with a real decoder on scoped threads, shutting
    /// down cleanly when `body` returns.
    fn with_batcher<R>(
        config: GatewayConfig,
        body: impl FnOnce(&Batcher, &EaszDecoder<'_>) -> R,
    ) -> (R, Arc<ServerMetrics>) {
        let model = Reconstructor::new(ReconstructorConfig::fast());
        let decoder = EaszDecoder::new(&model);
        let metrics = Arc::new(ServerMetrics::new());
        let workers = config.workers;
        let batcher = Batcher::new(config, metrics.clone());
        // Shut down on drop — including the unwind of a failed assertion
        // in `body`, which would otherwise leave the scoped scheduler and
        // worker threads parked forever and deadlock the test instead of
        // failing it.
        struct ShutdownOnDrop<'a>(&'a Batcher);
        impl Drop for ShutdownOnDrop<'_> {
            fn drop(&mut self) {
                self.0.shutdown();
            }
        }
        let result = std::thread::scope(|scope| {
            let b = &batcher;
            let _guard = ShutdownOnDrop(b);
            scope.spawn(move || b.run_scheduler());
            for _ in 0..workers {
                let decoder = &decoder;
                let metrics = &metrics;
                // The same supervisor loop the server runs: a poisoned
                // worker is respawned until clean shutdown.
                scope.spawn(move || loop {
                    match b.run_worker(decoder) {
                        WorkerExit::Shutdown => break,
                        WorkerExit::Poisoned => metrics.record_worker_respawn(),
                    }
                });
            }
            body(b, &decoder)
        });
        (result, metrics)
    }

    #[test]
    fn window_closes_on_max_batch_and_fuses_mixed_masks() {
        let _quiet = no_faults();
        let config = GatewayConfig { max_batch: 3, max_wait_us: 60_000_000, ..Default::default() };
        let ((), metrics) = with_batcher(config, |batcher, decoder| {
            // Distinct seeds => distinct masks; one window must still fuse
            // them and every reply must match its serial decode.
            let containers = [container(1), container(2), container(3)];
            let receivers: Vec<_> = containers
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    submit_chan(batcher, c.clone(), DecodeEngine::TapeFree, i as u64)
                        .expect("queue has room")
                })
                .collect();
            for (c, rx) in containers.iter().zip(receivers) {
                let batched = rx.recv().expect("reply").expect("decode");
                let serial = decoder.decode(c).expect("serial decode");
                assert_eq!(batched.data(), serial.data(), "gateway decode must match serial");
            }
        });
        let stats = metrics.snapshot();
        // The wait budget is effectively infinite, so only max_batch can
        // have closed the window: all three jobs share one batch.
        assert_eq!(stats.batches_dispatched, 1, "window must close on max_batch");
        assert_eq!(stats.batch_widths[2], 1, "the one window holds 3 jobs");
    }

    #[test]
    fn mixed_tier_window_never_fuses_but_replies_match_serial_per_tier() {
        let _quiet = no_faults();
        // One window holding both tiers of the same container: each reply
        // must be bit-equal to its own tier's serial decode, and the two
        // tiers must differ — proof the fused window kept them on separate
        // forwards.
        let config = GatewayConfig { max_batch: 4, max_wait_us: 60_000_000, ..Default::default() };
        let ((), metrics) = with_batcher(config, |batcher, decoder| {
            let c = container(7);
            let tiers = [
                DecodeEngine::TapeFree,
                DecodeEngine::QuantizedInt8,
                DecodeEngine::TapeFree,
                DecodeEngine::QuantizedInt8,
            ];
            let receivers: Vec<_> = tiers
                .iter()
                .map(|&tier| submit_chan(batcher, c.clone(), tier, 1).expect("queue has room"))
                .collect();
            let mut images = Vec::new();
            for (&tier, rx) in tiers.iter().zip(receivers) {
                let batched = rx.recv().expect("reply").expect("decode");
                let serial = decoder.decode_as(&c, tier).expect("serial decode");
                assert_eq!(batched.data(), serial.data(), "tier {tier:?} must match serial");
                images.push(batched);
            }
            assert_ne!(images[0].data(), images[1].data(), "tiers must differ numerically");
        });
        let stats = metrics.snapshot();
        // One window, but the decoder split it into two per-tier forwards —
        // and the histogram records fusion groups, so it shows two width-2
        // batches, never a width-4 one.
        assert_eq!(stats.batches_dispatched, 2, "one forward group per tier");
        assert_eq!(stats.batch_widths[1], 2, "each tier fused its own pair");
        assert_eq!(stats.batch_widths[3], 0, "no cross-tier width-4 fusion");
    }

    #[test]
    fn window_closes_on_max_wait() {
        let _quiet = no_faults();
        let config = GatewayConfig { max_batch: 64, max_wait_us: 1_000, ..Default::default() };
        let ((), metrics) = with_batcher(config, |batcher, _| {
            let rx = submit_chan(batcher, container(5), DecodeEngine::TapeFree, 1)
                .expect("queue has room");
            rx.recv().expect("reply").expect("decode");
        });
        let stats = metrics.snapshot();
        assert_eq!(stats.batches_dispatched, 1);
        assert_eq!(stats.batch_widths[0], 1, "a lone job dispatches as width 1 on timeout");
    }

    #[test]
    fn full_queue_and_shutdown_refuse_the_job() {
        let _quiet = no_faults();
        let config = GatewayConfig {
            max_batch: 64,
            max_wait_us: 60_000_000,
            queue_depth: 2,
            ..Default::default()
        };
        // No scheduler/workers: the queue can only fill.
        let batcher = Batcher::new(config, Arc::new(ServerMetrics::new()));
        let c = container(9);
        let tier = DecodeEngine::TapeFree;
        assert!(submit_chan(&batcher, c.clone(), tier, 1).is_some());
        assert!(submit_chan(&batcher, c.clone(), tier, 2).is_some());
        assert!(submit_chan(&batcher, c.clone(), tier, 3).is_none(), "queue is full");
        batcher.shutdown();
        assert!(submit_chan(&batcher, c, tier, 1).is_none(), "shutdown refuses work");
    }

    #[test]
    fn shutdown_flushes_parked_jobs() {
        let _quiet = no_faults();
        let model = Reconstructor::new(ReconstructorConfig::fast());
        let decoder = EaszDecoder::new(&model);
        let metrics = Arc::new(ServerMetrics::new());
        let config = GatewayConfig { max_batch: 64, max_wait_us: 60_000_000, ..Default::default() };
        let batcher = Batcher::new(config, metrics);
        let c = container(4);
        std::thread::scope(|scope| {
            let rx = submit_chan(&batcher, c.clone(), DecodeEngine::TapeFree, 1)
                .expect("queue has room");
            // Scheduler started *after* submission, with an hour-long wait
            // budget: only the shutdown flush can dispatch the window.
            scope.spawn(|| batcher.run_scheduler());
            scope.spawn(|| batcher.run_worker(&decoder));
            batcher.shutdown();
            let flushed = rx.recv().expect("flushed reply").expect("decode");
            let serial = decoder.decode(&c).expect("serial decode");
            assert_eq!(flushed.data(), serial.data());
        });
    }

    #[test]
    fn gateway_stamps_every_queue_milestone_on_the_span() {
        let _quiet = no_faults();
        use crate::trace::{TraceConfig, Tracer};
        let tracer = Tracer::new(TraceConfig::default());
        let config = GatewayConfig { max_batch: 1, max_wait_us: 1_000, ..Default::default() };
        let ((), _) = with_batcher(config, |batcher, _| {
            let mut span = tracer.begin(crate::protocol::DECODE, 1);
            span.stamp(TraceStage::Admitted);
            let (tx, rx) = mpsc::channel();
            batcher
                .submit(
                    container(1),
                    DecodeEngine::TapeFree,
                    1,
                    Some(span),
                    Box::new(move |result, span| {
                        let _ = tx.send((result, span));
                    }),
                )
                .unwrap_or_else(|_| panic!("queue has room"));
            let (result, span) = rx.recv().expect("reply");
            result.expect("decode");
            let span = span.expect("the span rides back with the reply");
            for stage in [
                TraceStage::Admitted,
                TraceStage::Enqueued,
                TraceStage::WindowClosed,
                TraceStage::Dispatched,
                TraceStage::DecodeStart,
                TraceStage::DecodeEnd,
            ] {
                assert!(span.stamped(stage), "stage {} must be stamped", stage.name());
            }
        });
    }

    #[test]
    fn window_draw_is_round_robin_across_sources() {
        let _quiet = no_faults();
        // One flooding source (4 jobs) plus two light ones: the draw must
        // interleave one-per-source before giving the flooder extra slots.
        let config = GatewayConfig { max_wait_us: 60_000_000, ..Default::default() };
        let batcher = Batcher::new(config, Arc::new(ServerMetrics::new()));
        let tier = DecodeEngine::TapeFree;
        for _ in 0..4 {
            submit_chan(&batcher, container(1), tier, 10).expect("room");
        }
        submit_chan(&batcher, container(2), tier, 20).expect("room");
        submit_chan(&batcher, container(3), tier, 30).expect("room");
        submit_chan(&batcher, container(2), tier, 20).expect("room");
        let mut state = batcher.queue.lock().unwrap();
        let drawn: Vec<u64> = state.draw_window(8).iter().map(|j| j.source).collect();
        assert_eq!(drawn, vec![10, 20, 30, 10, 20, 10, 10], "one job per source per cycle");
        assert_eq!(state.total, 0);
        assert!(state.rotation.is_empty() && state.queues.is_empty());
    }

    #[test]
    fn partial_draw_keeps_remaining_sources_rotated() {
        let _quiet = no_faults();
        let config = GatewayConfig { max_wait_us: 60_000_000, ..Default::default() };
        let batcher = Batcher::new(config, Arc::new(ServerMetrics::new()));
        let tier = DecodeEngine::TapeFree;
        for source in [1u64, 2, 1, 2, 1] {
            submit_chan(&batcher, container(source), tier, source).expect("room");
        }
        let mut state = batcher.queue.lock().unwrap();
        let first: Vec<u64> = state.draw_window(3).iter().map(|j| j.source).collect();
        assert_eq!(first, vec![1, 2, 1]);
        assert_eq!(state.total, 2);
        let second: Vec<u64> = state.draw_window(3).iter().map(|j| j.source).collect();
        assert_eq!(second, vec![2, 1], "leftovers drain in rotation order");
    }

    #[test]
    fn adaptive_wait_budget_tracks_arrival_rate() {
        let fixed = GatewayConfig { max_batch: 8, max_wait_us: 2_000, ..Default::default() };
        // Disabled or no estimate yet: always the full budget.
        assert_eq!(effective_wait_us(&fixed, 3, 500), 2_000);
        let adaptive = GatewayConfig { adaptive_wait: true, ..fixed };
        assert_eq!(effective_wait_us(&adaptive, 3, 0), 2_000, "no estimate yet");
        // Arrivals slower than the whole budget: dispatch immediately.
        assert_eq!(effective_wait_us(&adaptive, 1, 2_000), 0);
        assert_eq!(effective_wait_us(&adaptive, 1, 50_000), 0);
        // Dense traffic: wait just long enough for the remaining slots
        // (25% slack), never beyond the ceiling.
        assert_eq!(effective_wait_us(&adaptive, 6, 100), 250, "2 slots * 100µs * 5/4");
        assert_eq!(effective_wait_us(&adaptive, 0, 500), 2_000, "capped at max_wait_us");
        assert_eq!(effective_wait_us(&adaptive, 8, 100), 0, "full window waits for nothing");
    }

    #[test]
    fn submissions_feed_the_arrival_ewma() {
        let _quiet = no_faults();
        let config = GatewayConfig { max_wait_us: 60_000_000, ..Default::default() };
        let metrics = Arc::new(ServerMetrics::new());
        let batcher = Batcher::new(config, metrics.clone());
        let tier = DecodeEngine::TapeFree;
        submit_chan(&batcher, container(1), tier, 1).expect("room");
        assert_eq!(metrics.arrival_ewma_us(), 0, "one sample has no interval yet");
        std::thread::sleep(Duration::from_millis(2));
        submit_chan(&batcher, container(2), tier, 1).expect("room");
        let first = metrics.arrival_ewma_us();
        assert!(first >= 1_000, "interval of >=2ms must register, got {first}µs");
        // One back-to-back submission suffices logically ((7e + dt)/8 < e
        // whenever dt < e), but a loaded machine can stall any single
        // submit past `first` (and a run of stalls inflates the EWMA, so
        // one fast submit stops sufficing) — keep submitting until the
        // geometric decay wins. The container is encoded once, up front:
        // encoding inside the loop would space the submissions out.
        let next = container(3);
        let mut second = first;
        for _ in 0..500 {
            submit_chan(&batcher, next.clone(), tier, 1).expect("room");
            second = metrics.arrival_ewma_us();
            if second < first {
                break;
            }
        }
        assert!(second < first, "back-to-back submissions must pull the EWMA down");
    }

    #[test]
    fn deadline_sweeps_parked_jobs_when_workers_stall() {
        let _quiet = no_faults();
        // One-slot windows, a 20ms deadline, and *no* workers: every job
        // parks — in the ready backlog, in the scheduler's hand, or in the
        // queue — and only the sweep can answer. Pre-deadline every reply
        // channel must be blocked; post-deadline every job must surface as
        // `DEADLINE_EXCEEDED` instead of parking its handler forever.
        let config = GatewayConfig {
            max_batch: 1,
            max_wait_us: 1_000,
            workers: 1,
            deadline_us: 20_000,
            ..Default::default()
        };
        let metrics = Arc::new(ServerMetrics::new());
        let batcher = Batcher::new(config, metrics.clone());
        std::thread::scope(|scope| {
            let receivers: Vec<_> = (0..3u64)
                .map(|i| {
                    submit_chan(&batcher, container(i), DecodeEngine::TapeFree, i).expect("room")
                })
                .collect();
            scope.spawn(|| batcher.run_scheduler());
            for rx in receivers {
                let result = rx.recv_timeout(Duration::from_secs(20)).expect("swept reply");
                assert!(
                    matches!(result, Err(EaszError::DeadlineExceeded)),
                    "stalled job must be swept, got {result:?}"
                );
            }
            batcher.shutdown();
        });
        assert_eq!(metrics.snapshot().deadlines_expired, 3);
    }

    #[test]
    fn injected_panic_fails_only_its_job_and_the_worker_respawns() {
        let _fault = fault::install(fault::FaultPlan {
            decode_panic_oneshot: 1,
            ..fault::FaultPlan::default()
        });
        let config = GatewayConfig {
            max_batch: 3,
            max_wait_us: 60_000_000,
            workers: 1,
            ..Default::default()
        };
        let ((), metrics) = with_batcher(config, |batcher, decoder| {
            let containers = [container(1), container(2), container(3)];
            let receivers: Vec<_> = containers
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    submit_chan(batcher, c.clone(), DecodeEngine::TapeFree, i as u64)
                        .expect("queue has room")
                })
                .collect();
            // The oneshot fires on the window's first job: it alone gets
            // the typed `Internal`, its windowmates still decode to the
            // serial reference.
            let mut results = receivers.iter().map(|rx| rx.recv().expect("reply"));
            let first = results.next().expect("first job");
            match first {
                Err(EaszError::Internal(msg)) => {
                    assert!(msg.contains(fault::INJECTED_PANIC), "got {msg:?}")
                }
                other => panic!("expected Internal for the panicking job, got {other:?}"),
            }
            for (c, result) in containers[1..].iter().zip(results) {
                let image = result.expect("windowmates survive the panic");
                let serial = decoder.decode(c).expect("serial decode");
                assert_eq!(image.data(), serial.data(), "windowmate must match serial");
            }
            // The pool recovered: a fresh job decodes on the respawned
            // worker.
            let rx = submit_chan(batcher, container(9), DecodeEngine::TapeFree, 9)
                .expect("queue has room");
            rx.recv().expect("reply").expect("respawned worker decodes");
        });
        let stats = metrics.snapshot();
        assert!(stats.panics_caught >= 1, "the catch must be counted");
        assert_eq!(stats.worker_respawns, 1, "exactly one respawn");
    }

    #[test]
    fn doubly_bad_container_gets_one_error_whether_or_not_a_windowmate_panics() {
        // The typed error a container wrong twice over earns must not depend
        // on whether a windowmate's panic sent the window down the serial
        // fallback: model and mask are validated before the codec is
        // resolved on both routes.
        let model = Reconstructor::new(ReconstructorConfig::fast());
        let decoder = EaszDecoder::new(&model);
        let metrics = ServerMetrics::new();
        let mut unmounted = container(3);
        unmounted.codec_id = easz_codecs::CodecId(200);
        unmounted.config.model_id = 9;
        let mut corrupt = container(4);
        corrupt.codec_id = easz_codecs::CodecId(200);
        corrupt.mask_bytes.truncate(1);
        // The oneshot panic is drawn by the window's first container.
        let window = [container(1), unmounted, corrupt];
        let engines = [DecodeEngine::TapeFree; 3];
        let decode = |plan: fault::FaultPlan| {
            let _fault = fault::install(plan);
            decode_window(&decoder, &metrics, &window, &engines, &mut [None, None, None])
        };
        let (healthy, panicked) = decode(fault::FaultPlan::default());
        assert!(!panicked && healthy[0].is_ok(), "the neutral plan decodes the window fused");
        let (fallback, panicked) =
            decode(fault::FaultPlan { decode_panic_oneshot: 1, ..fault::FaultPlan::default() });
        assert!(panicked && matches!(fallback[0], Err(EaszError::Internal(_))));
        for results in [&healthy, &fallback] {
            assert!(matches!(results[1], Err(EaszError::UnknownModel(9))), "got {:?}", results[1]);
            assert!(matches!(results[2], Err(EaszError::MaskChannel(_))), "got {:?}", results[2]);
        }
    }

    #[test]
    fn injected_submit_refusal_degrades_like_a_full_queue() {
        let _fault = fault::install(fault::FaultPlan {
            submit_refuse_permille: 1000,
            ..fault::FaultPlan::default()
        });
        let batcher = Batcher::new(GatewayConfig::default(), Arc::new(ServerMetrics::new()));
        let refused = submit_chan(&batcher, container(2), DecodeEngine::TapeFree, 1);
        assert!(refused.is_none(), "every submit refused");
        assert_eq!(batcher.queue.lock().unwrap().total, 0, "nothing was parked");
    }
}
