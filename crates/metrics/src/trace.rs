//! Per-thread span recorder with Chrome-trace-event export.
//!
//! Every subsystem of the repro — the comm backends, the trainer's per-rank
//! iteration graphs, the serving request path — records onto one shared
//! recorder so a single `trace.json` shows the whole machine on one timeline,
//! viewable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! # Design
//!
//! * **One clock.** All timestamps are seconds on the process-wide monotonic
//!   epoch ([`clock_s`]) — the same clock `dmt-comm` stamps its `OpRecord`s
//!   on, so comm transfer intervals and compute spans from different threads
//!   line up exactly.
//! * **Zero cost when off.** The recorder is disabled by default; every
//!   emission site first performs one relaxed atomic load
//!   ([`tracing_enabled`]) and returns — no allocation, no TLS access, no
//!   clock read. A disabled span is pinned free by the
//!   `disabled_recorder_emits_nothing` test and `tests/zero_alloc.rs` (the
//!   serving hot path allocates nothing); the repo benchmark reports the
//!   enabled recorder's cost as `metrics.trace_overhead_pct`.
//! * **Scoped captures.** Every thread carries a [`Scope`]: a thread nobody
//!   enrolled gets a fresh one, a worker inherits its spawner's
//!   ([`current_scope`] before the spawn, [`enter_scope`] inside it).
//!   [`set_tracing`]`(true)` records the *caller's* scope only, so two
//!   engines driven from two threads of one process — parallel tests — never
//!   write into each other's capture. The scope is thread state, not recorder
//!   state, so a capture switched on after the workers exist still sees them.
//! * **Per-thread buffers.** When on, events are pushed onto a thread-local
//!   buffer registered in a global list, so recording never contends across
//!   threads; [`take_events`] drains every buffer (including those of threads
//!   that have since exited). Each buffer is capped at
//!   [`MAX_EVENTS_PER_THREAD`]; beyond that events are dropped and counted
//!   ([`events_dropped`]) rather than growing without bound.
//! * **Tracks.** Events carry an explicit [`Track`] (`pid` = deployment,
//!   `tid` = rank/thread lane). Rank threads register a default track with
//!   [`register_thread`]; subsystems whose work completes on helper threads
//!   (the comm backends) emit onto an explicit track so the event lands on
//!   the issuing rank's lane regardless of which thread logs it.
//!
//! # Event vocabulary
//!
//! | `cat` | emitted by | meaning |
//! |---|---|---|
//! | [`cat::COMM`] | comm backend | one collective's transfer interval (`dur` = paced elapsed) |
//! | [`cat::NODE`] | trainer graph | one iteration-graph node execution |
//! | [`cat::ITER`] | trainer executor | one rank's whole iteration |
//! | [`cat::STEP`] | trainer executor | `batch generation` and `optimizer`, the iteration's work outside the graph |
//! | [`cat::WAIT`] | trainer executor | accounting instant: measured blocked seconds of one collective wait |
//! | [`cat::REQUEST`] | serving | async request lifecycle (admit → … → reply / shed), `id` = request sequence number |
//! | [`cat::SERVE`] | serving | batch-scoped serving stage spans (lookup, dense, batch close) |
//!
//! The exported trace is more than decoration: [`hidden_comm_fraction_from_trace`]
//! re-derives the paper's overlap metric from the raw `WAIT` + `COMM` events
//! alone, mirroring the trainer's wait↔record pairing, and the test suite
//! asserts it matches `MeasuredRun::hidden_comm_fraction` — the trace is a
//! second witness to the overlap claim.

use serde::json::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered events per thread; beyond it events are dropped and
/// counted in [`events_dropped`], bounding memory on unbounded runs.
pub const MAX_EVENTS_PER_THREAD: usize = 1 << 21;

/// Well-known event categories (the `cat` field of the Chrome trace event).
pub mod cat {
    /// A collective's transfer interval, logged by the comm backend.
    pub const COMM: &str = "comm";
    /// One iteration-graph node execution on a rank.
    pub const NODE: &str = "node";
    /// One full training iteration on a rank.
    pub const ITER: &str = "iteration";
    /// Rank work of an iteration outside its graph: batch generation and
    /// the optimizer step.
    pub const STEP: &str = "step";
    /// Accounting instant carrying one collective wait's blocked seconds.
    pub const WAIT: &str = "wait";
    /// Async request-lifecycle events, `id` = request sequence number.
    pub const REQUEST: &str = "request";
    /// Batch-scoped serving stage spans.
    pub const SERVE: &str = "serve";
}

/// Well-known deployment ids (the `pid` lane of the trace).
pub mod deployment {
    /// Communication backends (one lane per rank × world scope).
    pub const COMM: u32 = 0;
    /// Trainer rank threads.
    pub const TRAINER: u32 = 1;
    /// Serving worker / stage threads.
    pub const SERVE: u32 = 2;
}

/// Sentinel stored in a `WAIT` event's `blocked_s` argument when the schedule
/// pinned the wait to full exposure (the sync schedule's convention); JSON
/// cannot carry `f64::INFINITY`.
pub const FULL_EXPOSURE: f64 = -1.0;

/// The scope being recorded; 0 while the recorder is off.
static RECORDING: AtomicU64 = AtomicU64::new(0);
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static FALLBACK_TID: AtomicU64 = AtomicU64::new(1 << 32);

/// The process-wide monotonic epoch every trace timestamp (and every comm
/// `OpRecord`) is measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds elapsed on the process-wide trace clock. `dmt-comm`'s
/// `comm_clock_s` delegates here, so comm records and spans share one epoch.
#[must_use]
pub fn clock_s() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// The [`Instant`] behind [`clock_s`], for callers that need to convert their
/// own `Instant`s onto the shared clock (the comm backend stamps op records
/// this way).
#[must_use]
pub fn epoch_instant() -> Instant {
    epoch()
}

/// The set of threads one capture records: a root thread and every worker
/// that inherited its scope through [`enter_scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope(u64);

thread_local! {
    /// This thread's scope id; 0 until first asked for.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's scope — a fresh one if the thread was never enrolled
/// in another's. Read it before spawning a worker and hand it to
/// [`enter_scope`] on the new thread.
#[must_use]
pub fn current_scope() -> Scope {
    SCOPE.with(|scope| {
        if scope.get() == 0 {
            scope.set(NEXT_SCOPE.fetch_add(1, Ordering::Relaxed));
        }
        Scope(scope.get())
    })
}

/// Enrolls the calling thread in `scope` (its spawner's): its events belong
/// to whatever capture records that scope, now or later.
pub fn enter_scope(scope: Scope) {
    SCOPE.with(|mine| mine.set(scope.0));
}

/// Turns the span recorder on — for the calling thread's [`Scope`] — or off
/// at runtime. Off is the default and costs one relaxed atomic load per
/// (skipped) emission site.
pub fn set_tracing(on: bool) {
    let scope = if on { current_scope().0 } else { 0 };
    RECORDING.store(scope, Ordering::SeqCst);
}

/// Whether the recorder is on *and* recording the calling thread's scope.
/// Emission sites check this first so the disabled path performs no
/// allocation and no clock read.
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    let recording = RECORDING.load(Ordering::Relaxed);
    recording != 0 && recording == current_scope().0
}

/// Events dropped so far because a thread buffer hit [`MAX_EVENTS_PER_THREAD`].
#[must_use]
pub fn events_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// The lane an event renders on: `pid` names the deployment
/// ([`deployment`]), `tid` the rank or worker thread within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Track {
    /// Deployment id (Perfetto "process").
    pub pid: u32,
    /// Rank / worker lane within the deployment (Perfetto "thread").
    pub tid: u64,
}

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// An unsigned integer argument (byte counts, sequence numbers).
    U64(u64),
    /// A float argument (seconds).
    F64(f64),
    /// A string argument (scope names).
    Str(String),
}

/// The Chrome-trace phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`ph: "X"`) with a duration.
    Complete,
    /// A zero-duration instant (`ph: "i"`).
    Instant,
    /// Start of an async (request-scoped) span (`ph: "b"`), matched by id.
    AsyncBegin,
    /// End of an async span (`ph: "e"`).
    AsyncEnd,
}

/// One recorded event, in seconds on the shared clock. Exported as one Chrome
/// trace event (timestamps converted to microseconds).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Human-readable operation label.
    pub name: String,
    /// Category ([`cat`]).
    pub cat: &'static str,
    /// Chrome-trace phase.
    pub phase: Phase,
    /// Lane the event renders on.
    pub track: Track,
    /// Start time, seconds on [`clock_s`].
    pub ts_s: f64,
    /// Duration in seconds ([`Phase::Complete`] only; 0 otherwise).
    pub dur_s: f64,
    /// Async span id ([`Phase::AsyncBegin`]/[`Phase::AsyncEnd`] only).
    pub id: Option<u64>,
    /// Attached arguments.
    pub args: Vec<(&'static str, Arg)>,
}

impl TraceEvent {
    /// A complete span covering `[ts_s, ts_s + dur_s]`.
    #[must_use]
    pub fn complete(track: Track, cat: &'static str, name: String, ts_s: f64, dur_s: f64) -> Self {
        Self {
            name,
            cat,
            phase: Phase::Complete,
            track,
            ts_s,
            dur_s,
            id: None,
            args: Vec::new(),
        }
    }

    /// A zero-duration instant at `ts_s`.
    #[must_use]
    pub fn instant(track: Track, cat: &'static str, name: String, ts_s: f64) -> Self {
        Self {
            name,
            cat,
            phase: Phase::Instant,
            track,
            ts_s,
            dur_s: 0.0,
            id: None,
            args: Vec::new(),
        }
    }

    /// The opening edge of an async span matched by `(cat, name, id)`.
    #[must_use]
    pub fn async_begin(track: Track, cat: &'static str, name: String, id: u64, ts_s: f64) -> Self {
        Self {
            name,
            cat,
            phase: Phase::AsyncBegin,
            track,
            ts_s,
            dur_s: 0.0,
            id: Some(id),
            args: Vec::new(),
        }
    }

    /// The closing edge of an async span matched by `(cat, name, id)`.
    #[must_use]
    pub fn async_end(track: Track, cat: &'static str, name: String, id: u64, ts_s: f64) -> Self {
        Self {
            name,
            cat,
            phase: Phase::AsyncEnd,
            track,
            ts_s,
            dur_s: 0.0,
            id: Some(id),
            args: Vec::new(),
        }
    }

    /// Attaches an unsigned-integer argument (builder-style).
    #[must_use]
    pub fn arg_u64(mut self, key: &'static str, value: u64) -> Self {
        self.args.push((key, Arg::U64(value)));
        self
    }

    /// Attaches a float argument (builder-style).
    #[must_use]
    pub fn arg_f64(mut self, key: &'static str, value: f64) -> Self {
        self.args.push((key, Arg::F64(value)));
        self
    }

    /// Attaches a string argument (builder-style).
    #[must_use]
    pub fn arg_str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.args.push((key, Arg::Str(value.into())));
        self
    }
}

/// Global event sink: every live (or exited) thread's buffer, plus the
/// process/thread display names registered so far.
struct Sink {
    buffers: Mutex<Vec<Arc<Mutex<Vec<TraceEvent>>>>>,
    process_names: Mutex<BTreeMap<u32, String>>,
    thread_names: Mutex<BTreeMap<(u32, u64), String>>,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink {
        buffers: Mutex::new(Vec::new()),
        process_names: Mutex::new(BTreeMap::new()),
        thread_names: Mutex::new(BTreeMap::new()),
    })
}

struct LocalBuf {
    buf: Arc<Mutex<Vec<TraceEvent>>>,
    track: Track,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(Vec::new()));
            sink()
                .buffers
                .lock()
                .expect("trace sink lock poisoned")
                .push(Arc::clone(&buf));
            LocalBuf {
                buf,
                track: Track {
                    pid: deployment::COMM,
                    tid: FALLBACK_TID.fetch_add(1, Ordering::Relaxed),
                },
            }
        });
        f(local)
    })
}

/// Registers the calling thread's default lane and display names. Cheap and
/// idempotent; called once per worker thread at spawn. Works while tracing is
/// off so a recorder enabled mid-run still has named lanes.
pub fn register_thread(process: &str, thread: &str, track: Track) {
    sink()
        .process_names
        .lock()
        .expect("trace name lock poisoned")
        .insert(track.pid, process.to_string());
    sink()
        .thread_names
        .lock()
        .expect("trace name lock poisoned")
        .insert((track.pid, track.tid), thread.to_string());
    with_local(|local| local.track = track);
}

/// Registers display names for a lane no thread owns (e.g. the comm backends'
/// per-rank lanes, whose events are logged by helper threads).
pub fn name_track(process: &str, thread: &str, track: Track) {
    sink()
        .process_names
        .lock()
        .expect("trace name lock poisoned")
        .insert(track.pid, process.to_string());
    sink()
        .thread_names
        .lock()
        .expect("trace name lock poisoned")
        .insert((track.pid, track.tid), thread.to_string());
}

/// The calling thread's registered lane (a fresh anonymous lane if
/// [`register_thread`] was never called on this thread).
#[must_use]
pub fn current_track() -> Track {
    with_local(|local| local.track)
}

/// Records `event`. A no-op (single relaxed load) while tracing is off.
pub fn emit(event: TraceEvent) {
    if !tracing_enabled() {
        return;
    }
    with_local(|local| {
        let mut buf = local.buf.lock().expect("trace buffer lock poisoned");
        if buf.len() >= MAX_EVENTS_PER_THREAD {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        } else {
            buf.push(event);
        }
    });
}

/// A live span: emits one [`Phase::Complete`] event covering its lifetime when
/// dropped (or explicitly [`Span::end`]ed).
pub struct Span {
    name: String,
    cat: &'static str,
    track: Track,
    start_s: f64,
    args: Vec<(&'static str, Arg)>,
}

impl Span {
    /// Attaches an unsigned-integer argument to the eventual event.
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        self.args.push((key, Arg::U64(value)));
    }

    /// Attaches a float argument to the eventual event.
    pub fn arg_f64(&mut self, key: &'static str, value: f64) {
        self.args.push((key, Arg::F64(value)));
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let mut event = TraceEvent::complete(
            self.track,
            self.cat,
            std::mem::take(&mut self.name),
            self.start_s,
            clock_s() - self.start_s,
        );
        event.args = std::mem::take(&mut self.args);
        emit(event);
    }
}

/// Opens a span on the calling thread's lane. Returns `None` without invoking
/// `name` while tracing is off, so instrumentation sites build their label
/// (and pay its allocation) only when recording.
#[must_use]
pub fn span(cat: &'static str, name: impl FnOnce() -> String) -> Option<Span> {
    if !tracing_enabled() {
        return None;
    }
    Some(Span {
        name: name(),
        cat,
        track: current_track(),
        start_s: clock_s(),
        args: Vec::new(),
    })
}

/// Drains every thread's buffered events (threads keep recording into their
/// now-empty buffers). Event order within one thread is preserved; order
/// across threads is unspecified — consumers sort by timestamp or sequence
/// arguments.
#[must_use]
pub fn take_events() -> Vec<TraceEvent> {
    let buffers = sink().buffers.lock().expect("trace sink lock poisoned");
    let mut out = Vec::new();
    for buf in buffers.iter() {
        out.append(&mut buf.lock().expect("trace buffer lock poisoned"));
    }
    out
}

fn write_json_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("-1");
    }
}

/// Renders events (plus all registered lane names) as a Chrome Trace Event
/// Format JSON array — the format Perfetto and `chrome://tracing` load
/// directly. Timestamps and durations are converted to microseconds.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 1024);
    out.push('[');
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };
    for (pid, name) in sink()
        .process_names
        .lock()
        .expect("trace name lock poisoned")
        .iter()
    {
        push_sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        ));
        write_json_escaped(&mut out, name);
        out.push_str("}}");
    }
    for ((pid, tid), name) in sink()
        .thread_names
        .lock()
        .expect("trace name lock poisoned")
        .iter()
    {
        push_sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
        ));
        write_json_escaped(&mut out, name);
        out.push_str("}}");
    }
    for event in events {
        push_sep(&mut out);
        out.push('{');
        out.push_str("\"name\":");
        write_json_escaped(&mut out, &event.name);
        out.push_str(",\"cat\":");
        write_json_escaped(&mut out, event.cat);
        let ph = match event.phase {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::AsyncBegin => "b",
            Phase::AsyncEnd => "e",
        };
        out.push_str(&format!(",\"ph\":\"{ph}\""));
        out.push_str(",\"ts\":");
        write_f64(&mut out, event.ts_s * 1e6);
        if event.phase == Phase::Complete {
            out.push_str(",\"dur\":");
            write_f64(&mut out, event.dur_s * 1e6);
        }
        if event.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if let Some(id) = event.id {
            out.push_str(&format!(",\"id\":{id}"));
        }
        out.push_str(&format!(
            ",\"pid\":{},\"tid\":{}",
            event.track.pid, event.track.tid
        ));
        out.push_str(",\"args\":{");
        for (i, (key, value)) in event.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_escaped(&mut out, key);
            out.push(':');
            match value {
                Arg::U64(v) => out.push_str(&format!("{v}")),
                Arg::F64(v) => write_f64(&mut out, *v),
                Arg::Str(s) => write_json_escaped(&mut out, s),
            }
        }
        out.push_str("}}");
    }
    out.push_str("\n]");
    out
}

/// Renders `events` to `path` as Chrome trace JSON.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn write_chrome_trace(path: &std::path::Path, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(events))
}

/// One event parsed back out of a Chrome trace JSON file.
#[derive(Debug, Clone)]
pub struct ParsedEvent {
    /// Event name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Chrome phase letter (`X`, `i`, `b`, `e`, `M`, …).
    pub ph: String,
    /// Start time in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (complete events; 0 otherwise).
    pub dur_us: f64,
    /// Deployment lane.
    pub pid: u64,
    /// Thread lane.
    pub tid: u64,
    /// Async span id, if present.
    pub id: Option<u64>,
    /// Numeric arguments.
    pub num_args: Vec<(String, f64)>,
    /// String arguments.
    pub str_args: Vec<(String, String)>,
}

impl ParsedEvent {
    /// Looks up a numeric argument by key.
    #[must_use]
    pub fn num(&self, key: &str) -> Option<f64> {
        self.num_args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    /// Looks up a string argument by key.
    #[must_use]
    pub fn str_arg(&self, key: &str) -> Option<&str> {
        self.str_args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a Chrome trace JSON array back into events (metadata events
/// included, with `ph == "M"`).
///
/// # Errors
///
/// Returns a description of the first malformed element: not a JSON array,
/// an element that is not an object, or a missing/mistyped required field.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<ParsedEvent>, String> {
    let value: Value = json
        .parse()
        .map_err(|e| format!("trace is not valid JSON: {e:?}"))?;
    let items = value.as_array().ok_or("trace root is not a JSON array")?;
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field_str = |key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Value::as_str)
                .map(ToString::to_string)
                .ok_or(format!("event {i}: missing string field `{key}`"))
        };
        let ph = field_str("ph")?;
        let name = field_str("name")?;
        let num = |key: &str| item.get(key).and_then(Value::as_f64);
        let mut num_args = Vec::new();
        let mut str_args = Vec::new();
        if let Some(Value::Object(entries)) = item.get("args") {
            for (key, v) in entries {
                match v {
                    Value::Number(n) => num_args.push((key.clone(), *n)),
                    Value::String(s) => str_args.push((key.clone(), s.clone())),
                    _ => {}
                }
            }
        }
        let required_ts = !matches!(ph.as_str(), "M");
        let ts_us = match num("ts") {
            Some(ts) => ts,
            None if required_ts => return Err(format!("event {i}: missing numeric `ts`")),
            None => 0.0,
        };
        if ph == "X" && num("dur").is_none() {
            return Err(format!("event {i}: complete event missing `dur`"));
        }
        events.push(ParsedEvent {
            name,
            cat: item
                .get("cat")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            ph,
            ts_us,
            dur_us: num("dur").unwrap_or(0.0),
            pid: num("pid").unwrap_or(0.0) as u64,
            tid: num("tid").unwrap_or(0.0) as u64,
            id: num("id").map(|v| v as u64),
            num_args,
            str_args,
        });
    }
    Ok(events)
}

/// Structural summary returned by [`validate_trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Complete spans checked.
    pub spans: usize,
    /// Instant events seen.
    pub instants: usize,
    /// Matched async begin/end pairs.
    pub async_pairs: usize,
    /// Distinct (pid, tid) lanes.
    pub tracks: usize,
}

/// Checks the structural invariants of a parsed trace:
///
/// * no negative timestamps or durations;
/// * complete spans on one lane either nest or are disjoint (no partial
///   overlap — each lane is a well-formed span stack);
/// * every async begin has a matching end with the same `(cat, id)` and a
///   non-negative extent.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_trace(events: &[ParsedEvent]) -> Result<TraceSummary, String> {
    // Nesting tolerance: one nanosecond in microseconds, far below any real
    // span but above f64 round-trip noise.
    const EPS_US: f64 = 1e-3;
    let mut summary = TraceSummary::default();
    let mut lanes: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let mut asyncs: BTreeMap<(String, u64), (usize, usize, f64, f64)> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        if event.ph == "M" {
            continue;
        }
        if event.ts_us < 0.0 || !event.ts_us.is_finite() {
            return Err(format!("event {i} ({}): negative timestamp", event.name));
        }
        match event.ph.as_str() {
            "X" => {
                if event.dur_us < 0.0 || !event.dur_us.is_finite() {
                    return Err(format!("event {i} ({}): negative duration", event.name));
                }
                summary.spans += 1;
                lanes
                    .entry((event.pid, event.tid))
                    .or_default()
                    .push((event.ts_us, event.ts_us + event.dur_us));
            }
            "i" => summary.instants += 1,
            "b" | "e" => {
                let id = event.id.ok_or(format!(
                    "event {i} ({}): async event without id",
                    event.name
                ))?;
                let entry = asyncs.entry((event.cat.clone(), id)).or_insert((
                    0,
                    0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ));
                if event.ph == "b" {
                    entry.0 += 1;
                    entry.2 = entry.2.min(event.ts_us);
                } else {
                    entry.1 += 1;
                    entry.3 = entry.3.max(event.ts_us);
                }
            }
            _ => {}
        }
    }
    summary.tracks = lanes.len();
    for ((pid, tid), mut spans) in lanes {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for (start, end) in spans {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= start + EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, top_end)) = stack.last() {
                if end > top_end + EPS_US {
                    return Err(format!(
                        "lane ({pid},{tid}): span [{start},{end}]us partially overlaps enclosing span ending at {top_end}us"
                    ));
                }
            }
            stack.push((start, end));
        }
    }
    for ((cat, id), (begins, ends, first_ts, last_ts)) in asyncs {
        if begins != ends {
            return Err(format!(
                "async span {cat}/{id}: {begins} begins vs {ends} ends"
            ));
        }
        if last_ts + 1e-3 < first_ts {
            return Err(format!("async span {cat}/{id}: ends before it begins"));
        }
        summary.async_pairs += begins;
    }
    Ok(summary)
}

/// One comm sample reconstructed from the trace (label, scope, transfer and
/// exposed seconds) — the trace-side mirror of the trainer's
/// `SegmentSample`.
#[derive(Debug, Clone)]
struct TraceSample {
    label: String,
    scope: String,
    time_s: f64,
    exposed_s: f64,
}

/// Recomputes the trainer's `hidden_comm_fraction` *from the exported trace
/// alone*: pairs each rank's `WAIT` instants with that rank+scope's `COMM`
/// transfer events in FIFO order (the same pairing `collect_comm_samples`
/// performs on live records), merges consecutive same-labelled samples within
/// an iteration, accumulates per rank, takes the slowest rank per segment
/// (the aggregation `MeasuredRun` uses), and returns
/// `1 − Σ exposed / Σ transfer`.
///
/// Returns `None` when the trace holds no comm/wait events or the per-rank
/// segment sequences are inconsistent (a malformed trace).
#[must_use]
pub fn hidden_comm_fraction_from_trace(events: &[ParsedEvent]) -> Option<f64> {
    // Per (rank, scope): comm transfer events in backend log order.
    let mut ops: BTreeMap<(u64, String), Vec<(u64, f64)>> = BTreeMap::new();
    for event in events {
        if event.cat == cat::COMM && event.ph == "X" {
            let rank = event.num("rank")? as u64;
            let scope = event.str_arg("scope")?.to_string();
            let seq = event.num("seq")? as u64;
            ops.entry((rank, scope))
                .or_default()
                .push((seq, event.dur_us / 1e6));
        }
    }
    for queue in ops.values_mut() {
        queue.sort_by_key(|&(seq, _)| seq);
    }
    let mut op_cursor: BTreeMap<(u64, String), usize> = BTreeMap::new();

    // Per rank: wait instants in schedule order, grouped by iteration, as
    // (seq, iter, scope, label, blocked seconds).
    type WaitRow = (u64, u64, String, String, f64);
    let mut waits: BTreeMap<u64, Vec<WaitRow>> = BTreeMap::new();
    for event in events {
        if event.cat == cat::WAIT && event.ph == "i" {
            let rank = event.num("rank")? as u64;
            let seq = event.num("seq")? as u64;
            let iter = event.num("iter")? as u64;
            let scope = event.str_arg("scope")?.to_string();
            let blocked = event.num("blocked_s")?;
            waits
                .entry(rank)
                .or_default()
                .push((seq, iter, scope, event.name.clone(), blocked));
        }
    }
    if waits.is_empty() || ops.is_empty() {
        return None;
    }

    // Rebuild per-rank accumulated segment sequences.
    let mut per_rank: Vec<Vec<TraceSample>> = Vec::new();
    for (rank, mut rank_waits) in waits {
        rank_waits.sort_by_key(|&(seq, _, _, _, _)| seq);
        let mut accumulated: Vec<TraceSample> = Vec::new();
        let mut iteration: Vec<TraceSample> = Vec::new();
        let mut current_iter = None;
        let flush =
            |iteration: &mut Vec<TraceSample>, accumulated: &mut Vec<TraceSample>| -> Option<()> {
                if iteration.is_empty() {
                    return Some(());
                }
                if accumulated.is_empty() {
                    accumulated.append(iteration);
                    return Some(());
                }
                if accumulated.len() != iteration.len() {
                    return None;
                }
                for (acc, s) in accumulated.iter_mut().zip(iteration.drain(..)) {
                    if acc.label != s.label || acc.scope != s.scope {
                        return None;
                    }
                    acc.time_s += s.time_s;
                    acc.exposed_s += s.exposed_s;
                }
                Some(())
            };
        for (_, iter, scope, label, blocked) in rank_waits {
            if current_iter != Some(iter) {
                flush(&mut iteration, &mut accumulated)?;
                current_iter = Some(iter);
            }
            let key = (rank, scope.clone());
            let cursor = op_cursor.entry(key.clone()).or_insert(0);
            let queue = ops.get(&key)?;
            let &(_, elapsed_s) = queue.get(*cursor)?;
            *cursor += 1;
            let blocked_s = if blocked < 0.0 {
                f64::INFINITY
            } else {
                blocked
            };
            let sample = TraceSample {
                label,
                scope,
                time_s: elapsed_s,
                exposed_s: blocked_s.min(elapsed_s),
            };
            match iteration.last_mut() {
                Some(last) if last.label == sample.label && last.scope == sample.scope => {
                    last.time_s += sample.time_s;
                    last.exposed_s += sample.exposed_s;
                }
                _ => iteration.push(sample),
            }
        }
        flush(&mut iteration, &mut accumulated)?;
        per_rank.push(accumulated);
    }

    // Slowest rank per segment position, exposure following the slowest rank —
    // exactly `measure::aggregate`'s rule. Iteration-count division cancels in
    // the fraction, so totals are compared directly.
    let segments = per_rank.first()?.len();
    if per_rank.iter().any(|r| r.len() != segments) || segments == 0 {
        return None;
    }
    let mut total_time = 0.0;
    let mut total_exposed = 0.0;
    for i in 0..segments {
        let mut slowest = 0.0f64;
        let mut exposed = 0.0f64;
        for rank in &per_rank {
            if rank[i].time_s > slowest {
                slowest = rank[i].time_s;
                exposed = rank[i].exposed_s;
            }
        }
        total_time += slowest;
        total_exposed += exposed;
    }
    if total_time <= 0.0 {
        return None;
    }
    Some((1.0 - total_exposed / total_time).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track() -> Track {
        Track { pid: 7, tid: 3 }
    }

    #[test]
    fn disabled_recorder_emits_nothing() {
        set_tracing(false);
        emit(TraceEvent::instant(track(), cat::SERVE, "x".into(), 1.0));
        assert!(span(cat::SERVE, || unreachable!("name built while disabled")).is_none());
        // No assertion on take_events here: other tests share the sink.
    }

    #[test]
    fn round_trip_preserves_events_and_validates() {
        let events = vec![
            TraceEvent::complete(track(), cat::NODE, "outer".into(), 1.0, 1.0)
                .arg_u64("iter", 2)
                .arg_f64("blocked_s", 0.25)
                .arg_str("scope", "Global"),
            TraceEvent::complete(track(), cat::NODE, "inner".into(), 1.25, 0.5),
            TraceEvent::instant(track(), cat::WAIT, "w".into(), 2.5),
            TraceEvent::async_begin(track(), cat::REQUEST, "request".into(), 9, 0.5),
            TraceEvent::async_end(track(), cat::REQUEST, "request".into(), 9, 2.0),
        ];
        let json = chrome_trace_json(&events);
        let parsed = parse_chrome_trace(&json).expect("parses");
        let spans: Vec<&ParsedEvent> = parsed.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert!((spans[0].ts_us - 1e6).abs() < 1e-6);
        assert!((spans[0].dur_us - 1e6).abs() < 1e-6);
        assert_eq!(spans[0].num("iter"), Some(2.0));
        assert_eq!(spans[0].num("blocked_s"), Some(0.25));
        assert_eq!(spans[0].str_arg("scope"), Some("Global"));
        let summary = validate_trace(&parsed).expect("valid");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.async_pairs, 1);
    }

    #[test]
    fn partial_overlap_on_one_lane_is_rejected() {
        let events = vec![
            TraceEvent::complete(track(), cat::NODE, "a".into(), 1.0, 1.0),
            TraceEvent::complete(track(), cat::NODE, "b".into(), 1.5, 1.0),
        ];
        let parsed = parse_chrome_trace(&chrome_trace_json(&events)).unwrap();
        assert!(validate_trace(&parsed).is_err());
    }

    #[test]
    fn unbalanced_async_span_is_rejected() {
        let events = vec![TraceEvent::async_begin(
            track(),
            cat::REQUEST,
            "request".into(),
            1,
            0.0,
        )];
        let parsed = parse_chrome_trace(&chrome_trace_json(&events)).unwrap();
        assert!(validate_trace(&parsed).is_err());
    }

    #[test]
    fn escaped_names_survive_the_round_trip() {
        let events = vec![TraceEvent::instant(
            track(),
            cat::SERVE,
            "quote\" slash\\ newline\n tab\t".into(),
            0.0,
        )];
        let parsed = parse_chrome_trace(&chrome_trace_json(&events)).unwrap();
        let instant = parsed.iter().find(|e| e.ph == "i").unwrap();
        assert_eq!(instant.name, "quote\" slash\\ newline\n tab\t");
    }

    /// Builds the comm/wait events of one synthetic 2-rank pipelined run and
    /// checks the recomputation against a hand calculation.
    #[test]
    fn hidden_fraction_recomputes_from_synthetic_events() {
        let comm_track = |rank: u64| Track { pid: 0, tid: rank };
        let mut events = Vec::new();
        // Rank 0: two iterations; one Global op per iteration, 10 ms transfer,
        // 2 ms blocked. Rank 1: same ops but 8 ms transfer, fully blocked.
        for rank in 0..2u64 {
            let (elapsed, blocked) = if rank == 0 {
                (0.010, 0.002)
            } else {
                (0.008, 0.008)
            };
            for iter in 0..2u64 {
                events.push(
                    TraceEvent::complete(
                        comm_track(rank),
                        cat::COMM,
                        "AllToAll".into(),
                        iter as f64,
                        elapsed,
                    )
                    .arg_u64("rank", rank)
                    .arg_u64("seq", iter)
                    .arg_str("scope", "Global"),
                );
                events.push(
                    TraceEvent::instant(
                        Track { pid: 1, tid: rank },
                        cat::WAIT,
                        "embedding exchange".into(),
                        iter as f64 + 0.01,
                    )
                    .arg_u64("rank", rank)
                    .arg_u64("seq", iter)
                    .arg_u64("iter", iter)
                    .arg_f64("blocked_s", blocked)
                    .arg_str("scope", "Global"),
                );
            }
        }
        let parsed = parse_chrome_trace(&chrome_trace_json(&events)).unwrap();
        // Rank 0 accumulates (time 0.020, exposed 0.004); rank 1 (0.016, 0.016).
        // Slowest rank is rank 0: hidden = 1 - 0.004/0.020 = 0.8.
        let hidden = hidden_comm_fraction_from_trace(&parsed).expect("recomputes");
        assert!((hidden - 0.8).abs() < 1e-9, "hidden = {hidden}");
    }

    #[test]
    fn sync_sentinel_pins_full_exposure() {
        let events = vec![
            TraceEvent::complete(
                Track { pid: 0, tid: 0 },
                cat::COMM,
                "AllReduce".into(),
                0.0,
                0.004,
            )
            .arg_u64("rank", 0)
            .arg_u64("seq", 0)
            .arg_str("scope", "Global"),
            TraceEvent::instant(
                Track { pid: 1, tid: 0 },
                cat::WAIT,
                "dense sync".into(),
                0.004,
            )
            .arg_u64("rank", 0)
            .arg_u64("seq", 0)
            .arg_u64("iter", 0)
            .arg_f64("blocked_s", FULL_EXPOSURE)
            .arg_str("scope", "Global"),
        ];
        let parsed = parse_chrome_trace(&chrome_trace_json(&events)).unwrap();
        let hidden = hidden_comm_fraction_from_trace(&parsed).expect("recomputes");
        assert!(hidden.abs() < 1e-12, "sync run hides nothing, got {hidden}");
    }
}
